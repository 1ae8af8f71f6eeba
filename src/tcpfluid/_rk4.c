/* The step loop of tcpfluid.dde.integrate for the Reno and CUBIC windows.

   A transcription of the Python loop in dde.py: the same floating-point
   operations in the same order, so every stored bit is the same.  It must
   be built without fast-math and with -ffp-contract=off, so that no
   operation is reordered or fused; log1p, expm1 and pow are the libm
   functions that Python's math module and float power call.  Plain C with
   no Python.h: tcpfluid/_rk4.py builds it on first use and binds it through
   ctypes. */

#include <math.h>

struct rk4_params {
    long k;          /* steps per delay */
    long window;     /* RENO or CUBIC */
    double h, tau, bdp, b, c;
    double w_ref, s_ref;
    double r_start;  /* the delayed rate of every stage before t = 0 */
};

/* Return codes; _rk4.py raises the IntegrationError of dde.py for each. */
enum { STEPPED = 0, DELAYED_WINDOW_LEFT = 1, WINDOW_LEFT = 2 };
enum { RENO = 0, CUBIC = 1 };  /* rk4_params.window, as _sim.c codes them */

struct model {
    const struct rk4_params *p;
    double k_ref, phi_ref, neg_c;  /* CubicWindow.deficit_about's reference terms */
};

/* core.cbrt */
static double cbrt_total(double x)
{
    return copysign(pow(fabs(x), 1.0 / 3.0), x);
}

/* The deficit w_max - W at the deviation (x1, x2): CubicWindow.deficit_about's
   closure, or the default closure over RenoWindow.window. */
static double deficit(const struct model *m, double x1, double x2)
{
    const struct rk4_params *p = m->p;
    if (p->window == CUBIC) {
        double r = x1 / p->w_ref;
        double growth = r > -1.0 ? expm1(log1p(r) / 3.0) : cbrt_total(1.0 + r) - 1.0;
        double phi = x2 + m->phi_ref - m->k_ref * growth;
        return m->neg_c * phi * phi * phi;
    }
    double w_max = p->w_ref + x1;
    return w_max - (0.5 * w_max + (p->s_ref + x2) / p->tau);
}

/* core.loss_rate */
static double loss_rate(const struct rk4_params *p, double w)
{
    double excess = w - p->bdp;
    return excess > 0.0 ? excess / p->tau : 0.0;
}

/* core.rhs_about's rhs: the derivative of (x1, x2), and the deficit. */
static double rhs(const struct model *m, double x1, double x2, double rate, double *d1,
                  double *d2)
{
    double gap = deficit(m, x1, x2);
    *d1 = -gap * rate;
    *d2 = 1.0 - (x2 + m->p->s_ref) * rate;
    return gap;
}

/* dde.hermite_midpoint */
static double hermite_midpoint(const double *y, const double *dy, long j, double h)
{
    return 0.5 * (y[j] + y[j + 1]) + 0.125 * h * (dy[j] - dy[j + 1]);
}

/* The n steps of integrate's loop: sample i + 1 from sample i, for sample 0
   already stored.  On a domain exit, stores nothing more and returns its
   code, with the sample index of its time in *at and the absolute state
   (w_max, s) in state[0], state[1]. */
int rk4_steps(const struct rk4_params *p, double *x1s, double *x2s, double *d1s, double *d2s,
              double *ws, long n, long *at, double *state)
{
    struct model m = {p, 0.0, 0.0, 0.0};
    if (p->window == CUBIC) {
        m.k_ref = cbrt_total(p->w_ref * p->b / p->c);
        m.phi_ref = p->s_ref - m.k_ref;
        m.neg_c = -p->c;
    }
    double h = p->h, half = 0.5 * h, sixth = h / 6.0;
    double x1 = x1s[0], x2 = x2s[0];
    for (long i = 0; i < n; i++) {
        long j = i - p->k;  /* the sample one delay back */
        double r_mid = p->r_start;
        if (j >= 0) {
            double y1 = hermite_midpoint(x1s, d1s, j, h), y2 = hermite_midpoint(x2s, d2s, j, h);
            double w = p->w_ref + y1 - deficit(&m, y1, y2);
            if (!(w > 0.0)) {
                *at = i;
                state[0] = p->w_ref + y1;
                state[1] = p->s_ref + y2;
                return DELAYED_WINDOW_LEFT;
            }
            r_mid = loss_rate(p, w);
        }
        double r_end = j >= -1 ? loss_rate(p, ws[j + 1]) : p->r_start;
        double k1a = d1s[i], k1b = d2s[i], k2a, k2b, k3a, k3b, k4a, k4b;
        rhs(&m, x1 + half * k1a, x2 + half * k1b, r_mid, &k2a, &k2b);
        rhs(&m, x1 + half * k2a, x2 + half * k2b, r_mid, &k3a, &k3b);
        rhs(&m, x1 + h * k3a, x2 + h * k3b, r_end, &k4a, &k4b);
        x1 += sixth * (k1a + 2.0 * (k2a + k3a) + k4a);
        x2 += sixth * (k1b + 2.0 * (k2b + k3b) + k4b);
        double d1, d2, gap = rhs(&m, x1, x2, r_end, &d1, &d2);
        double w_max = p->w_ref + x1, w = w_max - gap;
        if (!(w_max > 0.0 && w > 0.0)) {
            *at = i + 1;
            state[0] = w_max;
            state[1] = p->s_ref + x2;
            return WINDOW_LEFT;
        }
        x1s[i + 1] = x1, x2s[i + 1] = x2, d1s[i + 1] = d1, d2s[i + 1] = d2, ws[i + 1] = w;
    }
    return STEPPED;
}
