/* The step loop of tcpfluid.dde.integrate, and the event loop of
   tcpfluid.nhpl.run_simulation and the render of its trace, for the Reno,
   CUBIC and frozen windows, which all three take from one transcription of
   protocols.py's window functions.

   A transcription of the Python loops in dde.py (integrate's steps) and
   nhpl.py (generate_poi_loss and what it calls, and run_simulation's loss
   count) and of nhpl._render_trace: the same floating-point operations in
   the same order, so every stored sample, every event, every state bit and
   every window of the trace is the same.  It must be built without
   fast-math and with -ffp-contract=off, so that no operation is reordered
   or fused; log, log1p, expm1 and pow are the libm functions that math.log,
   math.log1p, math.expm1 and float power call.  Its uniforms come from the
   run's own numpy PCG64, through the next_double function that numpy's
   bit_generator.ctypes exposes, which is what Generator.random() calls, so
   the draws and their order are the Python loop's.  Its queue of pending
   indications pops in heapq's (time, flow) order, ties included, but is an
   array kept sorted, not a heap: losses come in time order, and so do their
   indications, so each push lands at the tail after one comparison.  Plain
   C with no Python.h: tcpfluid/_rk4.py builds it into one library with
   _repr.c and binds it through ctypes. */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* The window functions of protocols.py, by their codes in _rk4.py's _WINDOWS. */
enum { RENO = 0, CUBIC = 1, FROZEN = 2 };
/* Event kinds: their codes in tcpfluid.nhpl.KINDS, "loss" and "indication". */
enum { LOSS = 0, INDICATION = 1 };
/* Return codes of sim_run. */
enum { ENDED = 0, BLOCK_FULL = 1, OVER_BUDGET = 2, NO_FLOW_CAN_LOSE = 3 };

/* fixedpoint._MAX_ITER and fixedpoint._EPS */
#define MAX_ITER 100
#define EPS 0x1p-52

/* A system, and the event loop's SimState and event block; _rk4.py's _Sim.
   The step loop reads the system alone, window to c. */
struct sim {
    long window;                    /* RENO, CUBIC or FROZEN */
    long flows;
    double tau, bdp, b, c;          /* SystemParams */
    double lookahead, t_end;
    long most;                      /* losses allowed by t_end: WORK_BUDGET // flows */
    double (*next_double)(void *);  /* the run's PCG64 */
    void *rng;
    double *w_loss, *llis;          /* SimState.w_loss and llis */
    double *weights;                /* the flows' windows at the latest loss time */
    double *pending_t;              /* SimState.pending, sorted, with room */
    int64_t *pending_f;             /* for one more entry per free row */
    long pending;
    double t_loss_last;
    long losses;                    /* run_simulation's count, of losses by t_end */
    long candidates;                /* SimState.candidates */
    long rows, used;                /* the event block's rows, and those written */
    unsigned char *kind;
    double *time;
    int64_t *flow;
    double *before, *after;
    double loss_time;               /* on ENDED with found, and OVER_BUDGET */
    long found;                     /* on ENDED: whether the last step found a loss */
    double u;                       /* on NO_FLOW_CAN_LOSE: the draw for the pick */
};

/* core.cbrt */
static double cbrt_total(double x)
{
    return copysign(pow(fabs(x), 1.0 / 3.0), x);
}

/* The constant of an epoch whose pre-loss window is w_max: CUBIC's K. */
static double epoch_constant(const struct sim *m, double w_max)
{
    return m->window == CUBIC ? cbrt_total(w_max * m->b / m->c) : 0.0;
}

/* WindowFunction.window at (w_max, s), given the epoch's constant k. */
static double window_at(const struct sim *m, double w_max, double k, double s)
{
    double d = s - k;
    return m->window == RENO ? 0.5 * w_max + s / m->tau
           : m->window == CUBIC ? m->c * d * d * d + w_max : w_max;
}

/* WindowFunction.window at (w_max, s). */
static double window(const struct sim *m, double w_max, double s)
{
    return window_at(m, w_max, epoch_constant(m, w_max), s);
}

/* WindowFunction.coefficients at (w_max, s), into a[0..3]: the constant
   term is the window, as the WindowFunction contract makes it. */
static void coefficients(const struct sim *m, double w_max, double s, double *a)
{
    double k = epoch_constant(m, w_max), c = m->c, d = s - k;
    a[0] = window_at(m, w_max, k, s), a[1] = 0.0, a[2] = 0.0, a[3] = 0.0;
    if (m->window == RENO)
        a[1] = 1.0 / m->tau;
    else if (m->window == CUBIC)
        a[1] = 3.0 * c * d * d, a[2] = 3.0 * c * d, a[3] = c;
}

/* nhpl._horner on the n coefficients p. */
static double horner(const double *p, int n, double x)
{
    double acc = 0.0;
    for (int i = n - 1; i >= 0; i--)
        acc = p[i] + x * acc;
    return acc;
}

/* fixedpoint.solve_increasing */
static double solve_increasing(const double *p, double lo, double hi, double x)
{
    double p0 = p[0], p1 = p[1], p2 = p[2], p3 = p[3], p4 = p[4];
    double d1 = 2.0 * p2, d2 = 3.0 * p3, d3 = 4.0 * p4;
    for (int i = 0; i < MAX_ITER; i++) {
        double g = p0 + x * (p1 + x * (p2 + x * (p3 + x * p4)));
        double dg = p1 + x * (d1 + x * (d2 + x * d3));
        double nxt;
        if (g >= 0.0)
            hi = x;
        else
            lo = x;
        if (dg > 0.0) {
            double step = g / dg;
            nxt = x - step;
            if (fabs(step) <= EPS * fabs(x))
                return nxt;
        } else {
            nxt = hi;
        }
        if (!(lo < nxt && nxt < hi)) {
            nxt = 0.5 * (lo + hi);
            if (!(lo < nxt && nxt < hi))
                return hi;
        }
        x = nxt;
    }
    return hi;
}

/* Python's min(a, b) and max(a, b): a unless b is below (above) it. */
static double min_of(double a, double b)
{
    return b < a ? b : a;
}

static double max_of(double a, double b)
{
    return b > a ? b : a;
}

/* nhpl.excess_poly, into e[0..3]. */
static void excess_poly(const struct sim *m, double t0, double *e)
{
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0, c[4];
    for (long f = 0; f < m->flows; f++) {
        coefficients(m, m->w_loss[f], t0 - m->llis[f], c);
        a0 += c[0];
        a1 += c[1];
        a2 += c[2];
        a3 += c[3];
    }
    e[0] = a0 - (double)m->flows * m->bdp, e[1] = a1, e[2] = a2, e[3] = a3;
}

/* nhpl.t_bdp: 0 for None, else 1 with the offset in *x. */
static int t_bdp(const double *e, double horizon, double *x)
{
    if (e[0] >= 0.0) {
        *x = 0.0;
        return 1;
    }
    if (horner(e, 4, horizon) < 0.0)
        return 0;
    double guess = e[1] > 0.0 ? -e[0] / e[1] : 0.5 * horizon;
    double p[5] = {e[0], e[1], e[2], e[3], 0.0};
    *x = solve_increasing(p, 0.0, horizon, min_of(guess, horizon));
    return 1;
}

/* nhpl._integral_from_crossing: 0 for None, else 1 with (x0, q1, q2, q3,
   q4) in q[0..4]. */
static int integral_from_crossing(const double *e, double horizon, double *q)
{
    double start;
    if (!t_bdp(e, horizon, &start))
        return 0;
    double e0 = e[0], e1 = e[1], e2 = e[2], e3 = e[3];
    if (start > 0.0) {
        double x = start;
        e0 = max_of(horner(e, 4, x), 0.0);
        e1 = e1 + x * (2.0 * e2 + 3.0 * e3 * x);
        e2 = e2 + 3.0 * e3 * x;
    }
    q[0] = start, q[1] = e0, q[2] = 0.5 * e1, q[3] = e2 / 3.0, q[4] = 0.25 * e3;
    return 1;
}

/* nhpl.RngStream.uniform */
static double uniform(const struct sim *m)
{
    double u = m->next_double(m->rng);
    while (u <= 0.0)
        u = m->next_double(m->rng);
    return u;
}

/* nhpl.compute_T: 0 for None, else 1 with the candidate in *t.  compute_T's
   check that u lies inside (0, 1) always passes on uniform's draws. */
static int compute_T(const struct sim *m, double t0, double *t)
{
    double e[4], crossing[5];
    excess_poly(m, t0, e);
    if (!integral_from_crossing(e, m->lookahead, crossing))
        return 0;
    double start = crossing[0], horizon = m->lookahead - start;
    double u = uniform(m);
    double target = -log(u) * m->tau;
    double quartic[5] = {-target, crossing[1], crossing[2], crossing[3], crossing[4]};
    if (horner(quartic, 5, horizon) < 0.0)
        return 0;
    double guess = horizon;
    for (int k = 1; k <= 4; k++)
        if (quartic[k] > 0.0)
            guess = min_of(guess, pow(target / quartic[k], 1.0 / k));
    *t = t0 + start + solve_increasing(quartic, 0.0, horizon, guess);
    return 1;
}

/* nhpl.pick_losing_flow: 0 where it raises ValueError, else 1 with the flow
   in *flow.  Its check on u always passes on uniform's draws. */
static int pick_losing_flow(const double *w, long n, double u, long *flow)
{
    double total = 0.0;
    for (long f = 0; f < n; f++) {
        if (w[f] < 0.0)
            return 0;
        total += w[f];
    }
    if (!(total > 0.0))
        return 0;
    double threshold = u * total, running = 0.0;
    long last = 0;
    for (long f = 0; f < n; f++)
        if (w[f] > 0.0) {
            running += w[f];
            last = f;
            if (running > threshold) {
                *flow = f;
                return 1;
            }
        }
    *flow = last;
    return 1;
}

/* The queue's order, heapq's on its (time, flow) tuples: (ta, fa) < (tb, fb). */
static int earlier(double ta, int64_t fa, double tb, int64_t fb)
{
    return ta == tb ? fa < fb : ta < tb;
}

/* heapq.heappush, into the queue kept sorted by earlier: from the tail,
   past every entry the new one is earlier than.  Losses come in time
   order, so it passes only entries of its own time and a higher flow. */
static void push(struct sim *m, double t, long f)
{
    long i = m->pending++;
    for (; i > 0 && earlier(t, f, m->pending_t[i - 1], m->pending_f[i - 1]); i--)
        m->pending_t[i] = m->pending_t[i - 1], m->pending_f[i] = m->pending_f[i - 1];
    m->pending_t[i] = t, m->pending_f[i] = f;
}

/* heapq.heappop, of a queue that is not empty: its head, past which the
   queue's start moves (see sim_run). */
static void pop(struct sim *m, double *t, long *f)
{
    *t = *m->pending_t++, *f = (long)*m->pending_f++;
    m->pending--;
}

/* Append an event to the block. */
static void record(struct sim *m, int kind, double t, long f, double w_before, double w_after)
{
    long i = m->used++;
    m->kind[i] = (unsigned char)kind;
    m->time[i] = t, m->flow[i] = f, m->before[i] = w_before, m->after[i] = w_after;
}

/* nhpl._apply_next_indication */
static double apply_next_indication(struct sim *m)
{
    double t_ind;
    long f;
    pop(m, &t_ind, &f);
    double w_before = window(m, m->w_loss[f], t_ind - m->llis[f]);
    double w_after = window(m, w_before, 0.0);
    m->w_loss[f] = w_before;
    m->llis[f] = t_ind;
    record(m, INDICATION, t_ind, f, w_before, w_after);
    return t_ind;
}

/* nhpl.generate_poi_loss, counting its candidates: 1 with the loss time in
   *t, 0 for None, -1 where pick_losing_flow raises. */
static int generate_poi_loss(struct sim *m, double *t)
{
    m->candidates++;
    int found = compute_T(m, m->t_loss_last, t);
    while (m->pending && (!found || *t >= m->pending_t[0])) {
        double t_ind = apply_next_indication(m);
        m->candidates++;
        found = compute_T(m, t_ind, t);
    }
    if (!found)
        return 0;
    for (long f = 0; f < m->flows; f++)
        m->weights[f] = window(m, m->w_loss[f], *t - m->llis[f]);
    m->u = uniform(m);
    long flow;
    if (!pick_losing_flow(m->weights, m->flows, m->u, &flow))
        return -1;
    push(m, *t + m->tau, flow);
    record(m, LOSS, *t, flow, m->weights[flow], m->weights[flow]);
    m->t_loss_last = *t;
    return 1;
}

/* run_simulation's loop: step until a step finds no loss or one past
   t_end (ENDED), the losses by t_end pass `most` (OVER_BUDGET, with the
   loss's time), or pick_losing_flow raises (NO_FLOW_CAN_LOSE, with the
   windows in weights and the draw in u).  Before each step, returns
   BLOCK_FULL if the block has fewer free rows than the step may write: one
   per pending indication, and the loss. */
static int run(struct sim *m)
{
    for (;;) {
        if (m->rows - m->used < m->pending + 1)
            return BLOCK_FULL;
        double t;
        int found = generate_poi_loss(m, &t);
        if (found < 0)
            return NO_FLOW_CAN_LOSE;
        m->found = found;
        if (!found)
            return ENDED;
        m->loss_time = t;
        if (!(t <= m->t_end))
            return ENDED;
        if (++m->losses > m->most)
            return OVER_BUDGET;
    }
}

/* run, then the queue moved back to the start of its arrays, which its
   pops moved past.  The arrays must have room for the queue and one more
   entry per free row: each push writes a loss row, each pop an indication
   row. */
int sim_run(struct sim *m)
{
    double *start_t = m->pending_t;
    int64_t *start_f = m->pending_f;
    int code = run(m);
    memmove(start_t, m->pending_t, (size_t)m->pending * sizeof *start_t);
    memmove(start_f, m->pending_f, (size_t)m->pending * sizeof *start_f);
    m->pending_t = start_t, m->pending_f = start_f;
    return code;
}

/* The windows of flow f's current epoch, (llis[f], w_loss[f]), at the
   samples t_i = i * dt, lo <= i < hi, into column f of the matrix rows of
   flows + 1 columns: nhpl._render_trace's one window call on an epoch's
   ages t_i - start, so CUBIC's K is worked out once per epoch. */
static void fill(const struct sim *m, long f, long lo, long hi, double dt, double *rows)
{
    long width = m->flows + 1;
    double w = m->w_loss[f], start = m->llis[f], k = epoch_constant(m, w);
    for (long i = lo; i < hi; i++)
        rows[i * width + f] = window_at(m, w, k, (double)i * dt - start);
}

/* nhpl._render_trace: every flow's window at t_i = i * dt, i < samples,
   then their mean, into the rows of the (samples, flows + 1) matrix rows.
   Each flow's epoch at t = 0 is in llis and w_loss, which the render moves
   on; the indications among the block's used rows start the later ones,
   and no other row is read.  Sample i belongs to the last epoch that
   starts at or before t_i: at an indication of flow f, the samples before
   it that cursor[f], the first sample flow f has not written, has not
   reached are the ending epoch's.  The mean is summed in flow order. */
void sim_render(struct sim *m, long samples, double dt, int64_t *cursor, double *rows)
{
    long width = m->flows + 1;
    for (long f = 0; f < m->flows; f++)
        cursor[f] = 0;  /* the epoch at t = 0 starts at or before t_0 = 0 */
    for (long e = 0; e < m->used; e++) {
        if (m->kind[e] != INDICATION)
            continue;
        long f = (long)m->flow[e], hi = (long)cursor[f];
        double t_ind = m->time[e];
        while (hi < samples && (double)hi * dt < t_ind)
            hi++;
        fill(m, f, (long)cursor[f], hi, dt, rows);
        cursor[f] = hi;
        m->llis[f] = t_ind, m->w_loss[f] = m->before[e];
    }
    for (long f = 0; f < m->flows; f++)
        fill(m, f, (long)cursor[f], samples, dt, rows);
    for (long i = 0; i < samples; i++) {
        double *row = rows + i * width, total = 0.0;
        for (long f = 0; f < m->flows; f++)
            total += row[f];
        row[m->flows] = total / (double)m->flows;
    }
}

/* The step loop's own parameters, beside the system's struct sim; _rk4.py's
   _Params: k steps of h per delay, the reference point, and the delayed
   rate of every stage before t = 0. */
struct rk4_params {
    long k;
    double h, w_ref, s_ref, r_start;
};

/* Return codes of rk4_steps; _rk4.py raises the IntegrationError of dde.py for each. */
enum { STEPPED = 0, DELAYED_WINDOW_LEFT = 1, WINDOW_LEFT = 2 };

/* A run of the step loop, with CUBIC's K_ref and s_ref - K_ref. */
struct fluid {
    const struct sim *m;
    const struct rk4_params *p;
    double k_ref, phi_ref;
};

/* The deficit w_max - W at the deviation (x1, x2): CubicWindow.deficit_about's
   closure, or WindowFunction.deficit_about's default over the window. */
static double deficit(const struct fluid *f, double x1, double x2)
{
    const struct sim *m = f->m;
    if (m->window != CUBIC) {
        double w_max = f->p->w_ref + x1;
        return w_max - window(m, w_max, f->p->s_ref + x2);
    }
    double r = x1 / f->p->w_ref;
    double growth = r > -1.0 ? expm1(log1p(r) / 3.0) : cbrt_total(1.0 + r) - 1.0;
    double phi = x2 + f->phi_ref - f->k_ref * growth;
    return -m->c * phi * phi * phi;
}

/* core.loss_rate */
static double loss_rate(const struct sim *m, double w)
{
    double excess = w - m->bdp;
    return excess > 0.0 ? excess / m->tau : 0.0;
}

/* core.rhs_about's rhs: the derivative of (x1, x2), and the deficit. */
static double rhs(const struct fluid *f, double x1, double x2, double rate, double *d1,
                  double *d2)
{
    double gap = deficit(f, x1, x2);
    *d1 = -gap * rate;
    *d2 = 1.0 - (x2 + f->p->s_ref) * rate;
    return gap;
}

/* dde.hermite_midpoint */
static double hermite_midpoint(const double *y, const double *dy, long j, double h)
{
    return 0.5 * (y[j] + y[j + 1]) + 0.125 * h * (dy[j] - dy[j + 1]);
}

/* The n steps of integrate's loop on the system m: sample i + 1 from sample
   i, for sample 0 already stored.  On a domain exit, stores nothing more
   and returns its code, with the sample index of its time in *at and the
   absolute state (w_max, s) in state[0], state[1]. */
int rk4_steps(const struct sim *m, const struct rk4_params *p, double *x1s, double *x2s,
              double *d1s, double *d2s, double *ws, long n, long *at, double *state)
{
    double k_ref = epoch_constant(m, p->w_ref);
    struct fluid f = {m, p, k_ref, p->s_ref - k_ref};
    double h = p->h, half = 0.5 * h, sixth = h / 6.0;
    double x1 = x1s[0], x2 = x2s[0];
    for (long i = 0; i < n; i++) {
        long j = i - p->k;  /* the sample one delay back */
        double r_mid = p->r_start;
        if (j >= 0) {
            double y1 = hermite_midpoint(x1s, d1s, j, h), y2 = hermite_midpoint(x2s, d2s, j, h);
            double w = p->w_ref + y1 - deficit(&f, y1, y2);
            if (!(w > 0.0)) {
                *at = i, state[0] = p->w_ref + y1, state[1] = p->s_ref + y2;
                return DELAYED_WINDOW_LEFT;
            }
            r_mid = loss_rate(m, w);
        }
        double r_end = j >= -1 ? loss_rate(m, ws[j + 1]) : p->r_start;
        double k1a = d1s[i], k1b = d2s[i], k2a, k2b, k3a, k3b, k4a, k4b;
        rhs(&f, x1 + half * k1a, x2 + half * k1b, r_mid, &k2a, &k2b);
        rhs(&f, x1 + half * k2a, x2 + half * k2b, r_mid, &k3a, &k3b);
        rhs(&f, x1 + h * k3a, x2 + h * k3b, r_end, &k4a, &k4b);
        x1 += sixth * (k1a + 2.0 * (k2a + k3a) + k4a);
        x2 += sixth * (k1b + 2.0 * (k2b + k3b) + k4b);
        double d1, d2, gap = rhs(&f, x1, x2, r_end, &d1, &d2);
        double w_max = p->w_ref + x1, w = w_max - gap;
        if (!(w_max > 0.0 && w > 0.0)) {
            *at = i + 1, state[0] = w_max, state[1] = p->s_ref + x2;
            return WINDOW_LEFT;
        }
        x1s[i + 1] = x1, x2s[i + 1] = x2, d1s[i + 1] = d1, d2s[i + 1] = d2, ws[i + 1] = w;
    }
    return STEPPED;
}
