/* The cells of a CSV table as Python writes them: each float64 as
   repr(float), each int64 as str(int) and each fixed-width bytes cell as
   its text, byte for byte.

   format_rows writes a chunk of rows, cells separated by ',' and each row
   ended by '\n', into one buffer.  tcpfluid/_rk4.py builds this file into
   one library with _rk4.c and binds it through ctypes; tcpfluid/artifacts.py
   writes the buffer.  Python's repr, which artifacts.py writes every table
   with on a host where the library cannot be built, is the specification.

   The digits of a finite nonzero double v are those of David Gay's dtoa in
   mode 0, which repr uses: the shortest decimal that reads back as v, under
   IEEE round-half-even reading, and of those the one closest to v.  Tie
   rule: when two shortest decimals are equally close to v, the one whose
   last digit is even.  They are found by Schubfach (R. Giulietti, "The
   Schubfach way to render doubles", 2020): scale v and the ends of its
   rounding interval by a 128-bit approximation of 10^-k, chosen so that the
   interval holds at least one multiple of 10^k and at most one of 10^(k+1),
   then take that one multiple of 10^(k+1) if it lies inside, else the
   multiple of 10^k inside that is closest to v.  Every product is rounded
   to odd, which keeps each comparison with an even integer exact.

   The layout is repr's: fixed notation for 1e-4 <= |v| < 1e16, with ".0"
   on an integral value; otherwise d.ddde+XX, at least two exponent digits;
   and 0.0, -0.0, inf, -inf and nan for any NaN.  C99 plus one constructor
   attribute (gcc, clang), with no Python.h and no 128-bit type. */

#include <stdint.h>
#include <string.h>

/* The most bytes a cell takes with its separator: -2.2250738585072014e-308
   has 24, an int64 at most 20, and a bytes cell at most its width, which
   the caller keeps below CELL_BYTES.  The caller's buffer holds CELL_BYTES
   for every cell. */
#define CELL_BYTES 25

/* repr_powers[b - POWERS_MIN] for b in [POWERS_MIN, POWERS_MAX] is
   floor(10^b * 2^(127 - floor(log2 10^b))) + 1 as {high, low} 64-bit
   halves: 10^b to 128 bits, rounded up, with its top bit set.  fill_powers
   computes it exactly when the library is loaded. */
#define POWERS_MIN (-292)
#define POWERS_MAX 324
uint64_t repr_powers[POWERS_MAX - POWERS_MIN + 1][2];

/* The integers fill_powers scales, in 32-bit limbs, least significant
   first: 10^324 needs 1077 bits, and 2^(32 LIMBS - 1) / 10^292 must keep
   at least 128, which 2^1119 / 10^292, of 149 bits, does. */
#define LIMBS 35

/* y's top 128 bits, truncated, plus 1, at row. */
static void set_row(uint64_t row[2], const uint32_t y[LIMBS])
{
    uint64_t top[5] = {0};  /* y's five highest limbs from its first nonzero one */
    int high = LIMBS - 1, zeros = 0;
    while (y[high] == 0)
        high--;
    for (int i = 0; i < 5 && high - i >= 0; i++)
        top[i] = y[high - i];
    while (!(top[0] << zeros & 0x80000000u))
        zeros++;
    /* The 160 bits top[0..4] shifted left by zeros, whose top 128 are
       the row; >> 1 >> (63 - zeros) is >> (64 - zeros) for every zeros. */
    uint64_t hi = top[0] << 32 | top[1], mid = top[2] << 32 | top[3], lo = top[4] << 32;
    row[0] = hi << zeros | mid >> 1 >> (63 - zeros);
    row[1] = (mid << zeros | lo >> 1 >> (63 - zeros)) + 1;
    row[0] += row[1] == 0;
}

/* Each row from 10^b for b >= 0, and for b < 0 from floor(2^1119 / 10^-b),
   whose top 128 bits are those of 10^b, truncated.  Dividing the last
   quotient by ten keeps it exact: floor(floor(y / 10) / 10) is
   floor(y / 100). */
__attribute__((constructor)) static void fill_powers(void)
{
    uint32_t y[LIMBS] = {1};
    set_row(repr_powers[-POWERS_MIN], y);
    for (int b = 1; b <= POWERS_MAX; b++) {
        uint64_t carry = 0;
        for (int i = 0; i < LIMBS; i++) {
            carry += (uint64_t)y[i] * 10;
            y[i] = (uint32_t)carry;
            carry >>= 32;
        }
        set_row(repr_powers[b - POWERS_MIN], y);
    }
    memset(y, 0, sizeof y);
    y[LIMBS - 1] = UINT32_C(1) << 31;
    for (int b = -1; b >= POWERS_MIN; b--) {
        uint64_t rest = 0;
        for (int i = LIMBS - 1; i >= 0; i--) {
            rest = rest << 32 | y[i];
            y[i] = (uint32_t)(rest / 10);
            rest %= 10;
        }
        set_row(repr_powers[b - POWERS_MIN], y);
    }
}

/* floor(e log10 2), floor(log10(3/4 2^e)) and floor(e log2 10), exact for
   |e| <= 1300, which holds every exponent used here; >> of a negative int is
   arithmetic in every compiler that builds this library (gcc, clang). */
static int floor_log10_pow2(int e) { return (e * 315653) >> 20; }
static int floor_log10_three_quarters_pow2(int e) { return (e * 315653 - 131237) >> 20; }
static int floor_log2_pow10(int e) { return (e * 1741647) >> 19; }

/* The high 64 bits of a * b; the low 64 bits in *lo. */
static uint64_t mul_hi(uint64_t a, uint64_t b, uint64_t *lo)
{
    uint64_t a0 = a & 0xffffffffu, a1 = a >> 32, b0 = b & 0xffffffffu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
    *lo = (mid << 32) | (p00 & 0xffffffffu);
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}

/* g * cp / 2^128 rounded to an odd integer when it is not an integer.  g
   exceeds the exact power by at most 1 and cp < 2^59, so the computed
   product exceeds the exact one by less than 2^-5 units of its second word:
   the value is an integer exactly when that word is 0. */
static uint64_t round_to_odd(const uint64_t g[2], uint64_t cp)
{
    uint64_t unused, y_lo, x_hi = mul_hi(g[1], cp, &unused), y_hi = mul_hi(g[0], cp, &y_lo);
    uint64_t word = y_lo + x_hi;
    return (y_hi + (word < x_hi)) | (word != 0);
}

/* The shortest closest decimal d * 10^*k of v = c * 2^q (see the top of the
   file); lower_closer when the next double below v is half as far as the
   next above. */
static uint64_t shortest(uint64_t c, int q, int lower_closer, int *k)
{
    /* Quarter units of 2^q: v is 4c, its interval [4c - 2, 4c + 2], or
       [4c - 1, 4c + 2] when lower_closer; its ends belong to it when c is
       even.  Scaled by 10^-e, the interval is at least 1 wide and less than
       10, so it holds at least one multiple of 10^e and at most one of
       10^(e+1). */
    int even = (c & 1) == 0;
    int e = lower_closer ? floor_log10_three_quarters_pow2(q) : floor_log10_pow2(q);
    int h = q + floor_log2_pow10(-e) + 1;  /* in [1, 4] */
    const uint64_t *g = repr_powers[-e - POWERS_MIN];
    uint64_t cb = c << 2;
    uint64_t vb = round_to_odd(g, cb << h);  /* 4 v 10^-e */
    uint64_t lower = round_to_odd(g, (cb - 2 + lower_closer) << h) + !even;
    uint64_t upper = round_to_odd(g, (cb + 2) << h) - !even;
    uint64_t s = vb >> 2;  /* floor(v 10^-e) */
    if (s >= 10) {  /* the multiples of 10^(e+1) next to v */
        uint64_t sp = s / 10;
        int u_in = lower <= 40 * sp, w_in = 40 * sp + 40 <= upper;
        if (u_in != w_in) {
            *k = e + 1;
            return sp + w_in;
        }
    }
    *k = e;
    int u_in = lower <= 4 * s, w_in = 4 * s + 4 <= upper;
    if (u_in != w_in)
        return s + w_in;
    uint64_t mid = 4 * s + 2;  /* both inside: the closer, and the even one on a tie */
    return s + (vb > mid || (vb == mid && (s & 1)));
}

/* "00" to "99": digits() writes two digits per division. */
static const char PAIRS[] =
    "0001020304050607080910111213141516171819202122232425262728293031323334353637383940414243"
    "4445464748495051525354555657585960616263646566676869707172737475767778798081828384858687"
    "888990919293949596979899";

/* The decimal digits of d at the end of the 20 bytes before end; their count. */
static int digits(uint64_t d, char *end)
{
    char *p = end;
    for (; d >= 100; d /= 100) {
        p -= 2;
        memcpy(p, PAIRS + 2 * (d % 100), 2);
    }
    if (d >= 10) {
        p -= 2;
        memcpy(p, PAIRS + 2 * d, 2);
    } else {
        *--p = (char)('0' + d);
    }
    return (int)(end - p);
}

/* str(v) at out; the bytes written. */
static int format_int(int64_t v, char *out)
{
    char buf[20];
    uint64_t m = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    int n = digits(m, buf + 20), len = 0;
    if (v < 0)
        out[len++] = '-';
    memcpy(out + len, buf + 20 - n, (size_t)n);
    return len + n;
}

/* repr(v) at out; the bytes written. */
static int format_double(double v, char *out)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    uint64_t fraction = bits & ((UINT64_C(1) << 52) - 1);
    int exponent = (int)(bits >> 52 & 0x7ff), len = 0;
    if (exponent == 0x7ff) {
        const char *word = fraction ? "nan" : bits >> 63 ? "-inf" : "inf";
        size_t n = strlen(word);
        memcpy(out, word, n);
        return (int)n;
    }
    if (bits >> 63)
        out[len++] = '-';
    if (exponent == 0 && fraction == 0) {
        memcpy(out + len, "0.0", 3);
        return len + 3;
    }
    int k;
    uint64_t d = exponent ? shortest(fraction | UINT64_C(1) << 52, exponent - 1075,
                                     fraction == 0 && exponent > 1, &k)
                          : shortest(fraction, -1074, 0, &k);
    while (d % 10 == 0) {
        d /= 10;
        k++;
    }
    char buf[20];
    int n = digits(d, buf + 20);
    const char *dig = buf + 20 - n;
    int point = n + k;  /* v = 0.ddd * 10^point */
    if (point > -4 && point <= 16) {
        if (point <= 0) {  /* 0.000ddd */
            memcpy(out + len, "0.000", (size_t)(2 - point));
            len += 2 - point;
            memcpy(out + len, dig, (size_t)n);
            return len + n;
        }
        if (point < n) {  /* dd.ddd */
            memcpy(out + len, dig, (size_t)point);
            out[len + point] = '.';
            memcpy(out + len + point + 1, dig + point, (size_t)(n - point));
            return len + n + 1;
        }
        memcpy(out + len, dig, (size_t)n);  /* ddd000.0 */
        len += n;
        memset(out + len, '0', (size_t)(point - n));
        len += point - n;
        memcpy(out + len, ".0", 2);
        return len + 2;
    }
    out[len++] = dig[0];  /* d.ddde+XX */
    if (n > 1) {
        out[len++] = '.';
        memcpy(out + len, dig + 1, (size_t)(n - 1));
        len += n - 1;
    }
    int x = point - 1;
    out[len++] = 'e';
    out[len++] = x < 0 ? '-' : '+';
    x = x < 0 ? -x : x;
    if (x >= 100)
        out[len++] = (char)('0' + x / 100);
    out[len++] = (char)('0' + x / 10 % 10);
    out[len++] = (char)('0' + x % 10);
    return len;
}

/* The bytes of the width-byte cell up to its first NUL, or all of them,
   at out; the bytes written.  A numpy bytes (S<width>) cell is its text
   padded with NULs. */
static int format_bytes(const char *cell, long width, char *out)
{
    const char *nul = memchr(cell, '\0', (size_t)width);
    long n = nul ? nul - cell : width;
    memcpy(out, cell, (size_t)n);
    return (int)n;
}

/* Rows [0, rows) of the cols columns as CSV text at out, which holds
   CELL_BYTES for each cell; the bytes written.  Column j is float64 where
   kinds[j] is 'f', int64 where it is 'i' and bytes cells of widths[j]
   bytes where it is 'S'. */
long format_rows(long rows, long cols, const void *const *columns, const char *kinds,
                 const long *widths, char *out)
{
    char *p = out;
    for (long i = 0; i < rows; i++)
        for (long j = 0; j < cols; j++) {
            if (kinds[j] == 'f')
                p += format_double(((const double *)columns[j])[i], p);
            else if (kinds[j] == 'i')
                p += format_int(((const int64_t *)columns[j])[i], p);
            else
                p += format_bytes((const char *)columns[j] + i * widths[j], widths[j], p);
            *p++ = j + 1 < cols ? ',' : '\n';
        }
    return (long)(p - out);
}
