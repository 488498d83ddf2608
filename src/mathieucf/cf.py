"""The theory layer: the generic continued-fraction engine (convergents,
adaptive evaluation, even contraction, equivalence transforms) and the
Mathieu tail fraction's three shapes with their positivity and
equivalence witnesses and the tail-recursion residual.

A continued fraction here is a leading term ``b0`` plus a stream of partial
terms ``(a_n, b_n)`` for n >= 1, denoting

    b0 + a_1/(b_1 + a_2/(b_2 + a_3/(b_3 + ...))).

Approximants A_n/B_n follow the three-term recurrence

    A_n = b_n * A_{n-1} + a_n * A_{n-2},    A_{-1} = 1,  A_0 = b0,
    B_n = b_n * B_{n-1} + a_n * B_{n-2},    B_{-1} = 0,  B_0 = 1,

so A_n/B_n equals the fraction truncated after (a_n, b_n).  Successive
approximants satisfy the determinant identity

    A_n B_{n-1} - A_{n-1} B_n = (-1)^{n-1} * a_1 a_2 ... a_n,

which is the engine's primary self-check: it pins every term's entry into
the recurrence.  A and B grow (or shrink) geometrically; to stay inside
float64 range the engine jointly rescales (A_n, A_{n-1}, B_n, B_{n-1}) by an
exact power of two whenever they exceed a threshold.  Rescaling multiplies
numerator and denominator alike, so every ratio A_k/B_k is bit-exact
invariant; the determinant products pick up the square of the accumulated
scale, which callers can undo via the ``rescales`` counter.

Term streams are plain callables ``n -> (a_n, b_n)`` and must be pure
(same n, same term).  Arithmetic is duck-typed: float terms run in float64,
`fractions.Fraction` terms run exactly (exact state is never rescaled: it
cannot overflow, and the float rescale factor would turn it float).

The tail T(r, x) of the Mathieu series (see ``series``) equals one fraction
in z = x^2 - x, given here in three equivalent shapes: ``ab_form`` (all
coefficients positive when z >= 0, the shape ``series.tail_enclosure``
walks inline), ``cd_form`` (its denominators cleared) and
``kappa_lambda_form`` (its even contraction).  None of this runs on the
eval path: ``series`` never imports this module, and this module builds on
``series`` for the record base, the exact rescale and the tail bracket.

The tail interval at z = 0.  At x = 1 the fraction is limit-parabolic and
its even/odd bracket narrows only like 1/n, so ``series.tail_enclosure``
encloses T = T(r, 1) by a modified approximant instead, after the method
for limit-periodic fractions in Lorentzen & Waadeland, *Continued
Fractions with Applications* (1992).  Write rho = r^2 > 0, a_n, b_n for the
``ab_form`` coefficients (b_{2n} = 1, b_{2n+1} = rho/(2n+1)), and take
``kappa_lambda_form`` at x = 1, their even contraction:

    a'_1 = 1,  b'_1 = a_2 + b_1 = 1/2 + rho,
    a'_{n+1} = -a_{2n} a_{2n+1} = -n^4 (n^2 + 4 rho) / (4 (4n^2 - 1)),
    b'_{n+1} = a_{2n+1} + a_{2n+2} + b_{2n+1} = (n^2 + n + 1)/2 + rho.

With s_n(t) = a'_n/(b'_n + t) and S_N = s_1 o ... o s_N, S_N(t) is the
contracted approximant N with tail t, and

    L_N = (-2N^2 + 3N - 6 - 4 rho)/8 = -b'_{N+1}/2 + 5N/8 - 1/2,
    U_N = L_N + 1,   tau_N = -a_{2N} a_{2N+1} / (b_{2N+1} + a_{2N+1}).

Claim: for every integer N >= N_0(rho), the least one with N >= 4,
N >= 2 rho + 2 and N >= 16 rho (rho + 1)/27 + 1, T lies in S_N(V_N), where

    V_N = [L_N + c_N, L_N + c_N + 2 h_N],    A = 8 rho^2 + 8 rho + 3,
    c_N = 7/16 + A/(16 (2N - 1)) - (rho + 1)^4/(12 N^2 (2N - 3)),
    h_N = (rho + 1)^4 (rho^2 + 4 rho + 8)/(96 N^5),

a subset of [L_N, U_N] 2 h_N wide.  The level-N tail t_N of T (T =
S_N(t_N)), with t_N = s_{N+1}(t_{N+1}) solved order by order, has

    t_N - L_N = 7/16 + A/(32N) + A/(64N^2) + a_3/N^3 + a_4/N^4 + a_5/N^5 + ...,
    a_3 = -(16 rho^4 + 64 rho^3 + 72 rho^2 + 40 rho + 7)/384,
    a_4 = -(2 rho + 1)(8 rho^3 + 28 rho^2 + 30 rho + 13)/256,
    a_5 = (16 rho^6 + 128 rho^5 + 336 rho^4 + 384 rho^3 + 200 rho^2 + 24 rho
          - 7)/1536.

c_N matches it through N^-4 and falls short of a_5/N^5 by h_N exactly, so
the set's ends sit h_N below and above the tail, to fifth order.

Tails.  Let h >= 0 be a tail after a_{2N} of ``ab_form``, so the
approximant is a_1/(b_1 + ... + a_{2N}/(1 + h)).  Its level-N contracted
tail is t = -a_{2N} h/(1 + h): a step back reads
-a_{2N} g/(1 + g) = a'_{N+1}/(b'_{N+1} + t') for g = a_{2N+1}/(b_{2N+1} +
a_{2N+2}/(1 + h')) and t' = -a_{2N+2} h'/(1 + h').  So S_N(t) is the
``ab_form`` approximant with tail h = -t/(a_{2N} + t), and h in
[0, a_{2N+1}/b_{2N+1}] is t in [tau_N, 0], where S_N is continuous and
strictly monotone (a positive fraction in a non-negative tail).  The even
approximant f_{2M} has level-M tail 0 (h = 0), and the odd one f_{2M+1}
has tau_M (h = a_{2M+1}/b_{2M+1}).  A level-n tail t of any truncation
has 0 <= h <= a_{2n+1}/b_{2n+1}, so tau_n <= t <= 0.  And s_{n+1}
increases (a'_{n+1} < 0) wherever b'_{n+1} + t > 0: on [tau_{n+1}, 0],
since t > -a_{2n+2} there and b'_{n+1} - a_{2n+2} = a_{2n+1} + b_{2n+1},
and on [L_{n+1}, 0], since b'_{n+1} + L_{n+1} = (2n^2 + 3n + 4 rho - 1)/8.

Four facts, (iii) to (vi').  ``tests/test_cf.py`` reads each formula
below from this docstring, rebuilds each difference as an exact
``Fraction`` rational function on an (N, rho) grid with more points than
its degree, so each equality is an identity, expands each polynomial
below at the substitutions named with it, and checks each sign from
N_0(rho) on.  In (v') and (vi'), B = s^2 + 2s + 5 = rho^2 + 4 rho + 8
and s = rho + 1.
Of a polynomial P, P(0) is the constant term, #P the number of non-zero
coefficients and #-P that of negative ones.

(iii) L_N - tau_N = Q / (8 (2N - 1)(N^3 + 4N rho + 2 rho)),
      Q = 8N^5 - 8N^4 rho - 15N^4 + 28N^3 rho + 6N^3 - 32N^2 rho^2
          - 44N^2 rho - 6N rho + 8 rho^2 + 12 rho.
      With rho <= (N - 2)/2: -8N^4 rho >= -4N^5 + 8N^4 and
      -32N^2 rho^2 >= -8N^2 (N - 2)^2 >= -8N^4, while
      28N^3 - 44N^2 - 6N + 12 > 0 for N >= 2; so Q >= 4N^5 - 15N^4 > 0
      for N >= 4.
(iv)  U_N = -(2N^2 - 3N + 4 rho - 2)/8 <= 0 for N >= 2.
(v')  s_{N+1}(L_{N+1} + c_{N+1} + 2 h_{N+1}) - (L_N + c_N + 2 h_N)
          = -(rho + 1)^4 P_5 / (48 N^5 (2N - 3)(2N - 1) Q_5),
      P_5 = 768 B N^10 - 288 (7s^2 + 14s + 38) N^9
            + 32 (14s^4 + 72s^3 + 48s^2 - 663) N^8
            + 24 (16s^4 + 8s^3 - 63s^2 - 334s - 751) N^7
            - 16 (4s^6 + 8s^5 + 21s^4 + 192s^3 + 336s^2 + 960s + 156) N^6
            - 16 (2s^6 + 4s^5 + 84s^4 + 255s^3 + 447s^2 + 369s - 516) N^5
            + 8 (2s^8 + 8s^7 + 36s^6 + 56s^5 - 21s^4 - 102s^3 - 204s^2
                 + 750s + 585) N^4
            - 8 (4s^8 + 16s^7 + 41s^6 + 50s^5 - 27s^4 - 228s^3 - 483s^2
                 - 570s + 75) N^3
            + 4 B (2s^6 + 4s^5 + 19s^4 + 120s^2 - 12s - 36) N^2
            + 4 s B (2s^5 + 4s^4 + 3s^3 - 6s - 36) N
            - 3 s^2 B (s^4 + 2s^3 + 9s^2 + 24),
      Q_5 = 48N^9 + 312N^8 + 24 (4s + 33) N^7 + 48 (s + 4)(s + 5) N^6
            + 24 (9s^2 + 30s + 20) N^5 - 8 (s^4 - 45s^2 - 60s + 9) N^4
            - 4 (7s^4 - 60s^2 + 42) N^3 + 4 (s^6 + 2s^5 - 4s^4 - 36s - 12) N^2
            - 4 s (5s^3 + 18s + 12) N - s^2 (s^4 + 2s^3 + 9s^2 + 24).
      Written in rho and t = N - 2 rho - 2, Q_5 has only non-negative
      coefficients and Q_5(0) = 366996, and #-P_5 = 15, so the range is
      split.  For rho >= 1, P^u_5, P_5 in u = rho - 1 and t, has only
      non-negative coefficients and P^u_5(0) = 3069580272.  For rho < 1,
      where N_0 = 4, P^w_5, (1 + w)^8 P_5 at rho = w/(1 + w) and N = 4 + t
      (w >= 0, t >= 0), has only non-negative coefficients in (w, t) and
      P^w_5(0) = 319152672.  So (v') < 0 from N_0 on.
(vi') s_{N+1}(L_{N+1} + c_{N+1}) - (L_N + c_N)
          = (rho + 1)^4 P_4 / (12 N^2 (2N - 3)(2N - 1) Q_4),
      P_4 = 48 B N^4 + 54N^3 - 4 (s^4 + 9s^2 + 6s + 24) N^2
            - 12 s (s - 1) N + s^2 (s^2 + 6),
      Q_4 = 12N^6 + 42N^5 + 12 (2s + 3) N^4 + 6 (2s^2 + 6s - 1) N^3
            + 6 (3s^2 - 2) N^2 - 2 s (s^3 + 6) N - s^2 (s^2 + 6).
      Written in rho and t = N - 2 rho - 2, P_4 and Q_4 have only
      non-negative coefficients, #P_4 = 25 and #Q_4 = 28 of them non-zero,
      and P_4(0) = 5943 and Q_4(0) = 3397: both are positive, and so is
      (vi'), for N >= 2 rho + 2.

Value sets.  Let M > N >= N_0; (iii) to (vi') then hold at every level
from N on, and so do 7/16 <= c_n < c_n + 2 h_n <= c+_n <= 1, where

    c+_n = 7/16 + A/(16 (2n - 1)).

With n >= 2 rho + 2, 3 A n^2 >= 12 A (rho + 1)^2 >= 8 (rho + 1)^4, so
with n >= 3,
12 A n^2 (2n - 3) >= 16 (rho + 1)^4 (2n - 1), that is c_n >= 7/16; and
rho^2 + 4 rho + 8 <= (n^2 + 4n + 20)/4,
so (rho^2 + 4 rho + 8)(2n - 3) <= 4 n^3, that is 2 h_n <= c+_n - c_n.
With n >= 16 rho (rho + 1)/27 + 1, 9 (2n - 1) >= 32 rho (rho + 1)/3 + 9
>= A, that is c+_n <= 1.  So V_n lies in [L_n, U_n], U_n <= 0 by (iv),
and s_{n+1} increases on [L_{n+1}, 0].  By (vi'), s_{n+1} maps [L_{n+1}
+ c_{n+1}, 0] into [L_n + c_n, 0] (s_{n+1}(0) = a'_{n+1}/b'_{n+1} < 0),
so f_{2M}'s level-N tail lies in [L_N + c_N, 0].  Write V'_n = [tau_n,
L_n + c_n + 2 h_n].  As s_{n+1} increases, (v') gives s_{n+1}(t) < L_n +
c_n + 2 h_n for t in V'_{n+1}, and t >= tau_{n+1} gives s_{n+1}(t) >=
tau_n (a level-n tail of a truncation); so s_{n+1} maps V'_{n+1} into
V'_n, and tau_M <= L_M by (iii), so f_{2M+1}'s level-N tail lies in
V'_N.  By (iii) and (iv) both intervals lie in [tau_N, 0], where S_N is
a homeomorphism onto its image.  Both f_{2M} and f_{2M+1} tend to T as
M grows, so T = S_N(t) for a t in [L_N + c_N, 0] and in V'_N, that is in
V_N; and S_N(V_N) is the interval between S_N at its two ends.

Floating point.  ``tail_interval.bounds_at`` evaluates S_N(V_N) in one
backward pass from a set that holds V_N for every rho in its bracket:
L_N, and each term of c_N - 7/16 rounded down and of c_N + 2 h_N - 7/16
rounded up, at the end of the bracket that widens the set
(``tail_interval.offsets``; the sign of 2N - 3 picks the end of the
(rho + 1)^4 term), with ``math.nextafter`` after each rounding of the
start.  The pass carries u = -t in [u_lo, u_hi].  Level j = N - 1 ..
1 takes an end u' to (j^2 + 4 rho) g_j/(a - u'), with g_j = j^4/(4(4j^2 -
1)), so a'_{j+1} = -g_j (j^2 + 4 rho), and a = b'_{j+1} = m_j + rho, m_j =
(j^2 + j + 1)/2; level 0 takes it to 1/(1/2 + rho - u').  Each step maps
interval ends to interval ends (s_{j+1} increases; 1/(b'_1 + t)
decreases), and rho is bracketed by r*r rounded down and up ([0, 2^-1074]
where it underflows): u_hi takes rho_hi in its numerator and rho_lo in its
denominator, u_lo the reverse.  At level 0 every float operation that can
round is followed by one float step away from the value it bounds: a
positive result is multiplied by d = 1 - 2^-53 to step down and divided by
d to step up.  A level j >= 1 steps nothing: each end rounds to nearest
twice in its denominator, fl(a) - u', and three times in its numerator,
(j^2 + 4 rho) g_j over the denominator, and its g_j is rounded outward
instead.

Lemma (the step): for a float x >= 2^-1021, x*d rounds to the float below
x and x/d to the float above it.  Write x = M 2^q with 2^52 <= M < 2^53:
the float above is x + 2^q, and x 2^-53 = (M/2^53) 2^q lies in
[2^(q-1), 2^q).  If M > 2^52, x - x 2^-53 lies strictly between x - 2^q,
the float below, and the midpoint x - 2^(q-1); if x is a power of two,
the float below is x - 2^(q-1) = x*d itself (x >= 2^-1021 keeps the
binade below normal).  x/d = x + x 2^-53 + x 2^-106/d lies strictly
between x + 2^(q-1) and x + 3 2^(q-1), so it rounds to x + 2^q (inf past
the largest float).

Lemma (the standard model; Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, section 2.2): if the exact result v of a float
+, -, * or / is at least 2^-1022 in magnitude and rounds to a finite
float, it rounds to nearest as fl(v) = v (1 + delta) = v/(1 + delta')
with |delta|, |delta'| <= eps = 2^-53.  For v and fl(v) in [2^e, 2^(e+1)]
the floats there are 2^(e-52) apart, so |v - fl(v)| <= 2^(e-53), at most
eps |v| and eps |fl(v)|.

The table: g+_j is the least float at or above g_j (1 + eps)^6 and g-_j
the greatest at or below g_j (1 - eps)^6 (``tail_interval._G_POWER``):
each is an exact int quotient, j^4 (2^53 +- 1)^6 over (16j^2 - 4) 2^318,
rounded to nearest by int division and moved one float where it lands on
the wrong side.  A float step up multiplies a positive normal float M 2^q
(2^52 <= M < 2^53) by 1 + 1/M <= 1 + 2 eps, so g+_j <= g_j (1 + eps)^6
(1 + 2 eps).

A level.  Let a level's denominator have the exact value D = a - u' > 0,
with K = a/D.  It rounds to fl(fl(a) - u') = (a (1 + delta_1) - u')(1 +
delta_2) = D (1 + K delta_1)(1 + delta_2), so into [D (1 - K eps)(1 - eps),
D (1 + K eps)(1 + eps)].  With K <= 2, (1 + K eps)(1 + eps) <= (1 + eps)^3,
and by fl(v) >= v/(1 + eps) the upper end, (j^2 + 4 rho_hi) g+_j over d_lo
in three roundings, is at least (j^2 + 4 rho_hi) g+_j / (D (1 + eps)^6),
at least its exact (j^2 + 4 rho_hi) g_j / D.  By fl(v) <= v (1 + eps) the
lower end is at most (j^2 + 4 rho_lo) g-_j (1 + eps)^3 / (D (1 - 2 eps)(1
- eps)), at most its exact (j^2 + 4 rho_lo) g_j / D, as (1 - eps)^5 (1 +
eps)^3 = (1 - eps^2)^3 (1 - eps)^2 < 1 - 2 eps.  A fifth power would not
do: (1 + eps)^5 < (1 + eps)^4 (1 + 2 eps).

The ratio: K <= 2 at every level j >= 1 of a pass at N from N_0 to
``tail_interval.MAX_LEVEL`` = 2^23 - 1.  Write a_j = m_j + rho_lo (a_0 =
1/2 + rho_lo) and N_j = (j^2 + 4 rho_lo) g_j.  Every upper end u' that
enters level j is at most a_j/2, so D >= a_j/2 at d_lo; at d_hi, a = m_j +
rho_hi >= a_j and u' = u_lo <= u_hi (rounding is monotone), so D >= a/2
there too, or K <= 1 where u_lo <= 0.
- The start: c_N >= 7/16 from N_0 on, so -(L_N + c_N) at rho_hi is below
  a_{N-1}/2 by (2N - 1)/16 - (rho_hi - rho_lo)/2 > 3/8 (rho < N/2), and
  the start's roundings, on values below 2^48, move u_hi by less than 1/16.
- A level: if u' <= a_j/2, then K <= 2 and the new upper end is at most
  Lambda N_j/D <= 2 Lambda N_j/a_j, where Lambda = (1 + 5 eps)(1 +
  eps)^6 (1 + 2 eps)(1 + eps)^3/((1 - 2 eps)(1 - eps)) < 1 + 20 eps
  gathers rho_hi <= rho_lo (1 + 2 eps)/(1 - 2 eps) in the numerator (or
  rho_hi - rho_lo <= 2^-1073 where r*r is subnormal), g+_j's bound, the
  numerator's three roundings and the denominator's two.  And (4j^2 - 1)
  a_j a_{j-1} - (j^2 + 4 rho) j^4 = (3j^4 + 3j^2 - 1)/4 + rho (3j^2 - 1) +
  rho^2 (4j^2 - 1), with rho = rho_lo (m_j m_{j-1} = (j^4 + j^2 + 1)/4),
  is at least (j^2 + 4 rho) j^4/(2j^2), so 4 N_j (1 + 1/(2j^2)) <= a_j
  a_{j-1} (``tests/test_cf.py`` checks the identity).  For j < 2^23, 20
  eps < 2^-47 < 1/(2j^2), so the new end is at most a_{j-1}/2.
Above 2^23 the argument fails: the outward roundings of g_j, added up
over the levels, can outrun the pull of the fraction back toward its tail,
so ``MAX_LEVEL`` caps N below it.  In a pass it covers, the ``d_lo > 0`` test
never fires; it raises only outside the claim (N < N_0, or rho < 0).

The lemmas cover every rounded result of the pass after its start.  Each
product and quotient is at least 1/(24 (n^2 + rho + 1)) with rho < n
(N_0 >= 2 rho + 2), far above 2^-1021: the numerator factors are at least
1 and g_j >= 1/12, the denominators at most 2 (m_j + rho + 1), and 1/(1/2
+ rho + t) at level 0 is at least 1/(2 rho + 2).  The sums j^2 + 4 rho and
m_j + rho are at least 1, and each denominator is at least a_j/2 >= 1/4.
Exact are j, j^2, m_j (m_{j-1} = m_j - j) and 2n^2 - 3n + 6, integers
below 2^53 for n < 2^26, as are 4 rho, 32N - 16, N^2, 48N, 24N - 36 and
the start's division by 8; g+_j and g-_j are read from a table.  So the
computed ends enclose S_N(V_N).  Above 2^-1021 each
step lands on the float that ``math.nextafter`` gives, so level 0 is that
of a pass with a ``nextafter`` call after every rounding, as the start is.
N_0 is computed with every operation rounded up, at the upper end of rho's
bracket.

The asymptotic jump.  ``oracles.asymptotic`` forms t_m as the float nearest
tau_m = (-1)^m B_2m / r^(2m+2), keeps t_0 .. t_{M-1}, where M is the first m
at which the cap or (with ``auto``) |t_m| >= |t_{m-1}| stops it, and returns
their fsum, M and |t_M|.  For r < 112 it may form t_0 .. t_h only, for an
h with |t_h| < 2^-70 t_0 (``_RELEVANT``; so h >= 1), and then t_w, t_{w+1},
.. to the stop, where w <= cap is the largest m with (2m)(2m - 1) <= x =
fl(fl(C r) r) for the float r, and C = ``_FOUR_PI_SQUARED``, 4 pi^2 (1 -
2^-48) rounded down, if w >= h + 3.  (The terms near m = pi r fall like
e^(-2 pi r) and reach 2^-1022 near r = 112, past which the test of (b)
would fail.)  Claim: the outputs are those of the loop without the skip.
Write eps = 2^-53.
(a) By Euler's formula, |B_2k| = 2 (2k)! zeta(2k)/(2 pi)^(2k) for k >= 1,
    and zeta decreases on (1, inf), so for k >= 2
        |tau_k/tau_{k-1}| < (2k)(2k - 1)/(4 pi^2 r^2).
    x <= C r^2 (1 + eps)^2 < 4 pi^2 (1 - 2^-50) r^2, as (1 - 2^-48)(1 +
    2^-52) < 1 - 2^-50, and (2k)(2k - 1) grows with k, so |tau_k| < (1 -
    2^-50) |tau_{k-1}| for h < k <= w.  Every tau_k with k >= 1 is negative.
(b) The loop goes back (d) unless |t_w| > 2^-1022, and then |tau_w| >
    2^-1022 (rounding is monotone): by (a), tau_h .. tau_w are normal.  For
    normal y < (1 - 2^-50) z, fl(y) < fl(z), as z 2^-50 is at least four
    floats' spacing at z.  So |t_h| > .. > |t_w|: the stop rule cannot fire
    at a skipped m, nor at w, where it compares t_w with t_h in place of
    t_{w-1}; every skipped t_k lies in [-|t_h|, 0], and their sum K in
    [-n |t_h|, 0], n = w - h - 1.
(c) Let F be the formed kept terms, v = fsum(F) = fl(sum F) (fsum rounds
    correctly), delta = sum F - v, and g the gap from v to the float below
    it; the gap above is at most 2g, so |delta| <= g.  fl(sum F + K) = v if
    K = 0, or if -g/2 < delta + K, as delta + K < delta is below the half
    gap above.  ``_settled`` takes E = fl(n |t_h|), d = fsum(F + [-v]) =
    fl(delta), so |d| <= g, and accepts when v > 2^-960 and fl(E - d) <
    (g/2)(1 - 2^-48), where g/2 and its product are exact.  Then E - d <
    (g/2)(1 - 2^-48)(1 + 2 eps) and E < 2g; with n |t_h| <= E (1 + eps) and
    delta >= d - eps |d| (delta is exact where it is subnormal),
        delta + K > -(g/2)(1 - 2^-48 + 2^-52 + 2^-52 + 2^-51) > -g/2.
(d) Otherwise the loop restores the brackets saved at the jump and forms
    t_{h+1}, .. in turn, as without the skip.  Each formed term is the float
    nearest tau_m whatever bracket ``oracles._power`` (square and multiply
    through ``oracles._truncated``) gives num^(2m+2), so all outputs and
    error texts agree: a skipped term is finite, and the rest are formed in
    the same order.

The direct route's rounding.  ``series.mathieu_direct`` returns the floats
below fl(P + T-) - E and above fl(P + T+) + E, where P = fsum of the
computed terms t^_m, m = 1 .. M (the head ``series.mathieu_partial_sum(r,
M + 1)``), T- and T+ are the computed tail formulas
(its docstring), and E = fl((9 P + 27 q^) 2^-53) + (M + 8) 2^-1074 with
q^ = fl(1/(M^2 + rho^)), rho^ = fl(r r), rho = r^2.  Claim: the two floats
enclose S(r) whenever the exact-arithmetic bracket does.  Write eps = 2^-53
and use the standard model above, plus an absolute error of at most
2^-1075 where a result is subnormal.
(a) A sum x + rho^ with exact x >= 1 (an int below 2^53, or m^2 in float
    with m < 2^26) is x + rho within eps (x + rho): rho^ is rho (1 +- eps),
    or within 2^-1075 of it where r r is subnormal.  A rounded x, as fl(m m)
    for larger m or an int above 2^53 converted to float, has the same
    bound, so the sum is the same weighted mean.
(b) Each term t_m = 2m/d^2, d = m^2 + rho, is formed as fl(2m/fl(d^ d^))
    with d^ = fl(m m + rho^): five relative errors of at most eps, d's
    counted twice, so |t^_m - t_m| <= 6.01 eps t_m, plus 2^-1075 where the
    quotient is subnormal.  Products replace ``** 2`` because the C
    library's pow need not round to nearest.  fsum rounds the exact sum of
    the t^_m once, so |P - sum t_m| <= 7.03 eps P + (M + 2) 2^-1075.
(c) Every tail term is at most q = 1/(M^2 + rho): R >= M gives 1/(R^2 +
    rho), 1/((R + 1/2)^2 + rho) <= q and 1/((M + 1)^2 + rho) <= q, and (R +
    1)/((R + 1)^2 + rho)^2 <= 1/((R + 1)^2 + rho).  Each is formed within
    7.01 eps of itself: three roundings for a reciprocal, and at most seven
    for R + 1/2 squared or for (R + 1)/x^2.  T+ = fl(fl(q^ - q^_R) +
    q^_R'), so |T+ - (q - q_R + q_R')| <= 3 (7.01 eps q) + eps q + 2 eps q
    < 24.1 eps q; T- = fl(q^_{M+1} + h^) errs by at most 16.1 eps q.
(d) fl(P + T) adds at most eps (P + 2.01 q), so each end before E is within
    8.03 eps P + 26.2 eps q + (M + 8) 2^-1075 of its exact value (one
    2^-1075 for each of at most M + 8 subnormal results).  E is
    larger: q^ >= q (1 - 3.01 eps), 9 P + 27 q^ is formed in three
    roundings, times 2^-53 is exact above the subnormal range, the integer
    M + 8 times 2^-1074 is exact, and their sum's rounding, at most eps E,
    is less than the margins (0.96 eps P, and half of (M + 8) 2^-1074).
(e) A result rounded to nearest lies within half a gap of the exact value,
    so the float one step outward from fl(v - E) is at most v - E, and the
    one outward from fl(v + E) at least v + E.
Width: E is about 9 eps S(r) and each step at most 2 eps S(r), so the
certified bracket is wider than the exact one by about 22 eps S(r), 5.9e-15
near S(0) = 2 zeta(3); M_conv leaves room for that in tol.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional, Tuple

from . import series
from .series import (
    DEFAULT_RESCALE_AT,
    MathieuCFParams,
    _Record,
    _require_positive_r,
    _rescale_factor,
    _rescaled,
)

__all__ = [
    "ContinuedFraction",
    "Convergent",
    "EvalReport",
    "convergent",
    "iter_convergents",
    "evaluate",
    "even_contraction",
    "equivalence_transform",
    "kappa_lambda_form",
    "ab_form",
    "cd_form",
    "apery_form",
    "ab_to_cd_witness",
    "coefficients_positive",
    "telescoping_residual",
]

class ContinuedFraction(_Record):
    """A generalized continued fraction b0 + K(a_n / b_n).

    ``terms(n)`` returns ``(a_n, b_n)`` for n >= 1 and must be pure.
    Partial numerators must be nonzero: a_n = 0 would terminate the
    fraction silently, so it is rejected at access time.
    """

    __slots__ = _fields = ("b0", "terms")

    def term(self, n: int) -> Tuple[float, float]:
        if n < 1:
            raise ValueError(f"partial terms are 1-indexed; got n={n}")
        a, b = self.terms(n)
        if a == 0:
            raise ValueError(f"partial numerator a_{n} = 0: fraction degenerates at n={n}")
        return a, b


class Convergent(_Record):
    """Approximant state after consuming n partial terms.

    ``value`` is numerator/denominator (NaN when the denominator is 0: the
    approximant is indeterminate at this index but the recurrence continues
    past it).  ``numerator`` and ``denominator`` hold the rescaled recurrence
    state; ``rescales`` counts power-of-two rescale events so far, so the
    determinant identity holds up to scale**(2*rescales).
    """

    __slots__ = _fields = ("n", "numerator", "denominator", "value", "rescales")


class EvalReport(_Record):
    """Result of adaptive evaluation: last approximant and stopping data."""

    __slots__ = _fields = ("value", "terms_used", "converged", "last_delta")


def _recurrence(
    cf: ContinuedFraction, rescale_at: float
) -> Iterator[Tuple[int, float, float, int]]:
    """Yield (n, A_n, B_n, rescales) for n = 0, 1, 2, ...  Infinite."""
    if not (rescale_at > 0) or math.isinf(rescale_at):
        raise ValueError(f"rescale_at must be positive and finite; got {rescale_at!r}")
    scale = _rescale_factor(rescale_at)
    # Integer seeds: ints adopt whatever arithmetic the terms use (float
    # stays float, Fraction stays exact), so the seeds never force a type.
    a_prev, a_cur = 1, cf.b0  # A_{-1}, A_0
    b_prev, b_cur = 0, 1  # B_{-1}, B_0
    rescales = 0
    n = 0
    yield n, a_cur, b_cur, rescales
    while True:
        n += 1
        an, bn = cf.term(n)
        a_cur, a_prev = bn * a_cur + an * a_prev, a_cur
        b_cur, b_prev = bn * b_cur + an * b_prev, b_cur
        if not (abs(a_cur) <= rescale_at and abs(b_cur) <= rescale_at):
            if isinstance(a_cur, float):  # exact state stays unscaled
                a_cur, a_prev, b_cur, b_prev = _rescaled(n, scale, a_cur, a_prev, b_cur, b_prev)
                rescales += 1
        yield n, a_cur, b_cur, rescales


def _ratio(numerator, denominator):
    if denominator == 0:
        return math.nan
    return numerator / denominator


def iter_convergents(
    cf: ContinuedFraction,
    n_max: int,
    *,
    rescale_at: float = DEFAULT_RESCALE_AT,
) -> Iterator[Convergent]:
    """Yield Convergent objects for n = 0 .. n_max in one pass."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0; got {n_max}")
    for n, A, B, rescales in _recurrence(cf, rescale_at):
        yield Convergent(n, A, B, _ratio(A, B), rescales)
        if n >= n_max:
            return


def convergent(
    cf: ContinuedFraction,
    n: int,
    *,
    rescale_at: float = DEFAULT_RESCALE_AT,
) -> Convergent:
    """Compute the n-th approximant A_n/B_n.

    Raises if B_n = 0 (indeterminate at the requested index); intermediate
    zero denominators are passed through, since the recurrence is unaffected.
    """
    last = None
    for last in iter_convergents(cf, n, rescale_at=rescale_at):
        pass
    assert last is not None
    if last.denominator == 0:
        raise ZeroDivisionError(f"approximant indeterminate: B_{n} = 0")
    return last


def evaluate(cf: ContinuedFraction, tol: float, max_terms: int) -> EvalReport:
    """Iterate approximants until |f_n - f_{n-1}| <= tol or max_terms.

    The delta between successive approximants is a stopping heuristic, not a
    certified error bound; callers needing certification should bracket with
    even/odd approximants instead.  Indeterminate approximants (B_n = 0)
    never satisfy the stopping test.
    """
    if max_terms < 2:
        raise ValueError(f"max_terms must be >= 2; got {max_terms}")
    if not (tol >= 0):
        raise ValueError(f"tol must be >= 0; got {tol!r}")
    prev = cf.b0
    value = prev
    delta = math.inf
    terms_used = 0
    for n, A, B, _ in _recurrence(cf, DEFAULT_RESCALE_AT):
        if n == 0:
            continue
        value = _ratio(A, B)
        delta = abs(value - prev) if not math.isnan(value) else math.inf
        terms_used = n
        if delta <= tol:
            return EvalReport(value, terms_used, True, delta)
        prev = value
        if n >= max_terms:
            break
    return EvalReport(value, terms_used, False, delta)


def even_contraction(cf: ContinuedFraction) -> ContinuedFraction:
    """The contraction whose approximants are the even approximants of ``cf``.

    Approximant k of the result equals approximant 2k of the original, so
    the contraction converges twice as fast per term.  It exists when the
    even-indexed partial denominators b_2, b_4, ... are nonzero (b0 may be
    zero); a zero even b is reported lazily, when the contracted term that
    needs it is first requested.

    Contracted terms (c_k, d_k), writing (a_n, b_n) for the original:

        c_1 = a_1 b_2                -- d_0 = b_0
        d_1 = a_2 + b_1 b_2
        c_k = -a_{2k-2} a_{2k-1} b_{2k-4} b_{2k}   (the b_{2k-4} factor
        d_k = a_{2k-1} b_{2k} + b_{2k-2} (a_{2k} + b_{2k-1} b_{2k})
                                      is absent for k = 2)
    """

    def even_b(n: int):
        _, b = cf.term(n)
        if b == 0:
            raise ValueError(f"contraction does not exist: b_{n} = 0")
        return b

    def terms(k: int) -> Tuple[float, float]:
        if k == 1:
            a1, b1 = cf.term(1)
            b2 = even_b(2)
            a2, _ = cf.term(2)
            return a1 * b2, a2 + b1 * b2
        m = k - 1  # contracted term k consumes original terms 2m-1 .. 2m+2
        a2m, _ = cf.term(2 * m)
        a2m1, b2m1 = cf.term(2 * m + 1)
        a2m2, _ = cf.term(2 * m + 2)
        b2m = even_b(2 * m)
        b2m2 = even_b(2 * m + 2)
        c = -a2m * a2m1 * b2m2
        if m >= 2:
            c *= even_b(2 * m - 2)
        d = a2m1 * b2m2 + b2m * (a2m2 + b2m1 * b2m2)
        return c, d

    return ContinuedFraction(cf.b0, terms)


def equivalence_transform(
    cf: ContinuedFraction, r_seq: Callable[[int], float]
) -> ContinuedFraction:
    """Rescale partial terms without changing any approximant.

    Given nonzero multipliers r_n with r_0 = 1, the transformed fraction has
    c_n = r_{n-1} r_n a_n and d_n = r_n b_n, and its approximant sequence is
    identical to the original's (A, B each pick up a common factor that the
    ratio cancels).  ``r_seq`` must be pure.
    """
    if r_seq(0) != 1:
        raise ValueError(f"invalid equivalence sequence: r_0 must be 1, got {r_seq(0)!r}")

    def check(n: int):
        r = r_seq(n)
        if r == 0:
            raise ValueError(f"invalid equivalence sequence: r_{n} = 0")
        return r

    def terms(n: int) -> Tuple[float, float]:
        a, b = cf.term(n)
        r_n = check(n)
        r_prev = check(n - 1) if n > 1 else 1
        return r_prev * r_n * a, r_n * b

    return ContinuedFraction(cf.b0, terms)


def _one(params: MathieuCFParams):
    # Multiplicative unit in the parameter's arithmetic (1.0 or Fraction(1)),
    # so integer coefficient ratios stay exact on exact inputs.
    return (params.r - params.r) + 1


def ab_form(params: MathieuCFParams) -> ContinuedFraction:
    """T(r, x) as a continued fraction with unit leading numerator.

    With z = x^2 - x and rr = r^2:

        a_1 = 1,                        b_1      = z + rr
        a_{2n} = n^3 / (2(2n-1)),       b_{2n}   = 1
        a_{2n+1} = n(n^2+4rr)/(2(2n+1)), b_{2n+1} = z + rr/(2n+1)

    All coefficients are positive when z >= 0 (z > 0 at r = 0), which is
    what certified bracketing needs; for z < 0 the odd b's eventually go
    negative.
    """
    one = _one(params)
    rr = params.r * params.r
    z = params.z

    def terms(n: int):
        if n == 1:
            return one, z + rr
        m, odd = divmod(n, 2)
        if odd:
            return (m * (m * m + 4 * rr) * one) / (2 * (2 * m + 1)), z + rr / (2 * m + 1)
        return (m ** 3 * one) / (2 * (2 * m - 1)), one

    return ContinuedFraction(one - one, terms)


def cd_form(params: MathieuCFParams) -> ContinuedFraction:
    """The ``ab_form`` fraction with denominators cleared of /(2(2n+1)) factors.

        c_1 = 2,              d_1      = 2z + 2rr
        c_{2n} = n^3,         d_{2n}   = 1
        c_{2n+1} = n(n^2+4rr), d_{2n+1} = 2(2n+1)z + 2rr

    Same value, same approximant sequence (it is the equivalence transform of
    ``ab_form`` by ``ab_to_cd_witness``).
    """
    one = _one(params)
    rr = params.r * params.r
    z = params.z

    def terms(n: int):
        if n == 1:
            return 2 * one, 2 * z + 2 * rr
        m, odd = divmod(n, 2)
        if odd:
            return m * (m * m + 4 * rr) * one, 2 * (2 * m + 1) * z + 2 * rr
        return m ** 3 * one, one

    return ContinuedFraction(one - one, terms)


def apery_form() -> ContinuedFraction:
    """Apery's fraction for zeta(3): ``cd_form`` at r = 0, x = 2, with
    b0 = 1 and the first numerator halved (an exact float step), so

        b0 = 1;  c_1 = 1, d_1 = 4;
        c_{2n} = c_{2n+1} = n^3;  d_{2n} = 1,  d_{2n+1} = 4(2n+1).

    A_n is linear in c_1 and B_n does not involve it, so the value is
    1 + T(0, 2)/2 = S(0)/2 = zeta(3) (van der Poorten, "A proof that Euler
    missed", Math. Intelligencer 1, 1979).  The approximants start 5/4,
    6/5 and alternate around zeta(3).
    """
    tail = cd_form(MathieuCFParams(0.0, 2.0))

    def terms(n: int) -> Tuple[float, float]:
        c, d = tail.terms(n)
        return (c / 2 if n == 1 else c), d

    return ContinuedFraction(1.0, terms)


def ab_to_cd_witness(n: int) -> float:
    """Equivalence multipliers turning ``ab_form`` into ``cd_form``.

    r_0 = 1, r_{2n} = 1, r_{2n+1} = 2(2n+1); i.e. 2n at odd indices.
    """
    return 2.0 * n if n % 2 else 1.0


def kappa_lambda_form(params: MathieuCFParams) -> ContinuedFraction:
    """T(r, x) with partial denominators centered at (x - 1/2)^2.

    With w = (x - 1/2)^2 (note w + (1 + 4rr)/4 = z + rr + 1/2):

        a_1 = 1,  b_1 = w + (1 + 4rr)/4
        a_{n+1} = -n^4 (n^2 + 4rr) / (4 (2n-1)(2n+1))
        b_{n+1} = w + (2n^2 + 2n + 1 + 4rr)/4

    One term here advances as far as two ``ab_form`` terms: this fraction is
    termwise identical to the even contraction of ``ab_form``.  Its partial
    numerators are negative from a_2 on, so it supports plain evaluation but
    not even/odd bracketing.
    """
    one = _one(params)
    rr4 = 4 * params.r * params.r
    half = one / 2
    w = (params.x - half) * (params.x - half)

    def terms(n: int):
        if n == 1:
            return one, w + (1 + rr4) / (4 * one)
        m = n - 1
        kappa = -(m ** 4 * (m * m + rr4) * one) / (4 * (2 * m - 1) * (2 * m + 1))
        lam = (2 * m * m + 2 * m + 1 + rr4) / (4 * one)
        return kappa, w + lam

    return ContinuedFraction(one - one, terms)


def coefficients_positive(params: MathieuCFParams, n_max: int) -> Optional[int]:
    """First index n <= n_max where an ``ab_form`` coefficient is <= 0, else None.

    Positivity for all n is equivalent to z >= 0 for r > 0, and to z > 0 at
    r = 0 (the even coefficients and partial numerators are positive
    outright; the odd denominators z + r^2/(2n+1) decrease toward z).
    """
    form = ab_form(params)
    for n in range(1, n_max + 1):
        a, b = form.term(n)
        if not (a > 0 and b > 0):
            return n
    return None


_TELESCOPE_TERM_CAP = 100_000


def telescoping_residual(r: float, x: float, tol: float = 1e-10) -> float:
    """Residual of the tail recursion T(r, x) - T(r, x+1) = 2x/(x^2+r^2)^2.

    Both tails are taken at the same r; exactness of the recursion is a
    sharp consistency check across two different points of the same
    fraction.  Each tail is evaluated to a certified bracket of width
    <= tol/4 when its z is >= 0; for z < 0 (x < 1, where bracketing is
    unavailable) and for brackets still wider than tol/4 at the 100k-term
    cap, the best available approximant is used and the residual is then
    only as good as that approximant — honest about slow convergence rather
    than silently certified.
    """
    if not (tol > 0):
        raise ValueError(f"tol must be > 0; got {tol!r}")
    _require_positive_r(r)

    def value_at(x0: float) -> float:
        params = MathieuCFParams(r, x0)
        if params.z >= 0:
            return series.tail_enclosure(r, x0, tol / 4, _TELESCOPE_TERM_CAP).enclosure.midpoint
        return evaluate(ab_form(params), tol / 8, _TELESCOPE_TERM_CAP).value

    derivative_term = 2 * x / (x * x + r * r) ** 2
    return value_at(x) - value_at(x + 1) - derivative_term
