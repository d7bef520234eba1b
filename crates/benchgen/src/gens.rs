//! The arithmetic circuit generators, each with a bit-exact software
//! reference model used by the test suite.
//!
//! All generators are parameterized by bit-width so small instances can be
//! verified exhaustively against integer arithmetic; the EPFL-suite widths
//! (see `epfl` module) instantiate the paper's I/O signatures.

use crate::words::{
    add, add_sub, const_word, less_than, mul, mux_word, shl_barrel, shl_const, sub, zero_word, Word,
};
use mig::{Mig, Signal};

fn input_word(m: &Mig, start: usize, width: usize) -> Word {
    (start..start + width).map(|i| m.input(i)).collect()
}

/// Ripple-carry adder: `width`-bit `a`, `b` → `width+1`-bit sum
/// (EPFL *Adder*: width 128 → I/O 256/129).
pub fn adder(width: usize) -> Mig {
    let mut m = Mig::new(2 * width);
    let a = input_word(&m, 0, width);
    let b = input_word(&m, width, width);
    let (sum, carry) = add(&mut m, &a, &b, Signal::ZERO);
    for s in sum {
        m.add_output(s);
    }
    m.add_output(carry);
    m
}

/// Array multiplier: `width`-bit `a`, `b` → `2*width`-bit product
/// (EPFL *Multiplier*: width 64 → I/O 128/128).
pub fn multiplier(width: usize) -> Mig {
    let mut m = Mig::new(2 * width);
    let a = input_word(&m, 0, width);
    let b = input_word(&m, width, width);
    let p = mul(&mut m, &a, &b);
    for s in p {
        m.add_output(s);
    }
    m
}

/// The parallel-propose stress instance: the EPFL-width array multiplier
/// (64-bit operands, >10⁴ gates as built). Large enough that an
/// event-driven convergence run proposes thousands of replacements over
/// many regions — the workload behind the `sched/mult_big@N` benchmark
/// rows and the CI speedup gate.
pub fn mult_big() -> Mig {
    multiplier(64)
}

/// Squarer: `width`-bit `a` → `2*width`-bit `a²` (EPFL *Square*:
/// width 64 → I/O 64/128). Partial-product sharing falls out of
/// structural hashing.
pub fn square(width: usize) -> Mig {
    let mut m = Mig::new(width);
    let a = input_word(&m, 0, width);
    let p = mul(&mut m, &a, &a.clone());
    for s in p {
        m.add_output(s);
    }
    m
}

/// Maximum of four `width`-bit values plus the 2-bit index of the winner
/// (EPFL *Max*: width 128 → I/O 512/130; ties resolved toward the lower
/// index, matching [`model_max4`]).
pub fn max4(width: usize) -> Mig {
    let mut m = Mig::new(4 * width);
    let vals: Vec<Word> = (0..4).map(|k| input_word(&m, k * width, width)).collect();
    // Tournament: max(v0, v1), max(v2, v3), then final.
    let lt01 = less_than(&mut m, &vals[0], &vals[1]);
    let m01 = mux_word(&mut m, lt01, &vals[1], &vals[0]);
    let lt23 = less_than(&mut m, &vals[2], &vals[3]);
    let m23 = mux_word(&mut m, lt23, &vals[3], &vals[2]);
    let ltf = less_than(&mut m, &m01, &m23);
    let mx = mux_word(&mut m, ltf, &m23, &m01);
    // Index bits: idx1 = final picked the right half; idx0 = the winning
    // half's comparison.
    let idx0 = m.mux(ltf, lt23, lt01);
    for s in mx {
        m.add_output(s);
    }
    m.add_output(idx0);
    m.add_output(ltf);
    m
}

/// Reference model for [`max4`]: `(max, index)`.
pub fn model_max4(vals: [u128; 4]) -> (u128, u32) {
    let lt01 = vals[0] < vals[1];
    let m01 = if lt01 { vals[1] } else { vals[0] };
    let lt23 = vals[2] < vals[3];
    let m23 = if lt23 { vals[3] } else { vals[2] };
    let ltf = m01 < m23;
    let mx = if ltf { m23 } else { m01 };
    let idx0 = if ltf { lt23 } else { lt01 };
    (mx, u32::from(idx0) | (u32::from(ltf) << 1))
}

/// Restoring array divider: `width`-bit dividend and divisor →
/// `width`-bit quotient and remainder (EPFL *Divisor*: width 64 →
/// I/O 128/128). Division by zero yields an all-ones quotient and
/// remainder = dividend, matching [`model_divisor`].
pub fn divisor(width: usize) -> Mig {
    let mut m = Mig::new(2 * width);
    let n = input_word(&m, 0, width);
    let d = input_word(&m, width, width);
    // Remainder register is width+1 bits to absorb the shifted-in bit.
    let dw: Word = {
        let mut w = d.clone();
        w.push(Signal::ZERO);
        w
    };
    let mut rem = zero_word(width + 1);
    let mut q = vec![Signal::ZERO; width];
    for i in (0..width).rev() {
        // rem = (rem << 1) | n[i]
        let mut shifted = shl_const(&rem, 1);
        shifted[0] = n[i];
        let (diff, borrow) = sub(&mut m, &shifted, &dw);
        q[i] = !borrow;
        rem = mux_word(&mut m, borrow, &shifted, &diff);
    }
    for s in q {
        m.add_output(s);
    }
    for s in rem.into_iter().take(width) {
        m.add_output(s);
    }
    m
}

/// Reference model for [`divisor`]: `(quotient, remainder)`.
pub fn model_divisor(n: u128, d: u128, width: usize) -> (u128, u128) {
    let mut rem: u128 = 0;
    let mut q: u128 = 0;
    for i in (0..width).rev() {
        rem = (rem << 1) | ((n >> i) & 1);
        if rem >= d && d != 0 {
            rem -= d;
            q |= 1 << i;
        } else if d == 0 {
            // Subtracting 0 never borrows: quotient bit is always set.
            q |= 1 << i;
        }
    }
    (q, rem)
}

/// Restoring square root: `width`-bit radicand (width even) →
/// `width/2`-bit root (EPFL *Square-root*: width 128 → I/O 128/64).
pub fn square_root(width: usize) -> Mig {
    let mut m = Mig::new(width);
    let n = input_word(&m, 0, width);
    let root = crate::words::sqrt_restoring(&mut m, &n);
    for s in root {
        m.add_output(s);
    }
    m
}

/// Reference model for [`square_root`]: floor(sqrt(n)).
pub fn model_square_root(n: u128) -> u128 {
    let mut r: u128 = 0;
    let mut rem: u128 = 0;
    for i in (0..64).rev() {
        rem = (rem << 2) | ((n >> (2 * i)) & 3);
        let trial = (r << 2) | 1;
        r <<= 1;
        if rem >= trial {
            rem -= trial;
            r |= 1;
        }
    }
    r
}

/// Hypotenuse `floor(sqrt(a² + b²))`: `width`-bit `a`, `b` →
/// `width+1`-bit result. Two array squarers feed a ripple adder feeding
/// the restoring square root — the deep-arithmetic instance of the
/// large-graph corpus (EPFL *Hyp*-style: long carry chains stacked on
/// multiplier cones). `hypotenuse(96)` is ≈190k gates before
/// AND-expansion.
pub fn hypotenuse(width: usize) -> Mig {
    let mut m = Mig::new(2 * width);
    let a = input_word(&m, 0, width);
    let b = input_word(&m, width, width);
    let sa = mul(&mut m, &a, &a.clone());
    let sb = mul(&mut m, &b, &b.clone());
    // a² + b² needs 2*width + 1 bits; pad the radicand to the next even
    // width for the restoring root.
    let (sum, carry) = add(&mut m, &sa, &sb, Signal::ZERO);
    let mut radicand = sum;
    radicand.push(carry);
    radicand.push(Signal::ZERO);
    debug_assert!(radicand.len().is_multiple_of(2));
    let root = crate::words::sqrt_restoring(&mut m, &radicand);
    for s in root {
        m.add_output(s);
    }
    m
}

/// Reference model for [`hypotenuse`]: `floor(sqrt(a² + b²))`.
pub fn model_hypotenuse(a: u128, b: u128) -> u128 {
    model_square_root(a * a + b * b)
}

/// Fixed-point base-2 logarithm via normalization plus iterative
/// squaring: `width`-bit input → `ebits` integer bits and `fbits`
/// fraction bits with an `mant`-bit internal mantissa (EPFL *Log2*:
/// width 32, ebits 5, fbits 27, mant 12 → I/O 32/32). Input 0 produces
/// all-zero outputs (checked against [`model_log2`]).
pub fn log2(width: usize, ebits: usize, fbits: usize, mant: usize) -> Mig {
    assert!(width <= 1 << ebits, "exponent field too narrow");
    assert!((4..=24).contains(&mant), "mantissa width out of range");
    let mut m = Mig::new(width);
    let x = input_word(&m, 0, width);

    // Leading-one position e (priority encoder) as an ebits-wide word.
    let mut e = zero_word(ebits);
    let mut found = Signal::ZERO;
    for i in (0..width).rev() {
        let here = m.and(x[i], !found);
        let idx = const_word(ebits, i as u128);
        e = e
            .iter()
            .zip(&idx)
            .map(|(&cur, &bit)| {
                let picked = m.and(here, bit);
                m.or(cur, picked)
            })
            .collect();
        found = m.or(found, x[i]);
    }

    // Normalize: mantissa = x << (width-1 - e), take top `mant` bits.
    // Equivalent: shift left by the complement of e.
    let shift_amount: Word = {
        // width-1 - e  (width-1 fits in ebits since width <= 2^ebits)
        let w1 = const_word(ebits, (width - 1) as u128);
        sub(&mut m, &w1, &e).0
    };
    let shifted = shl_barrel(&mut m, &x, &shift_amount);
    // Top `mant` bits of the normalized value (MSB = leading one).
    let mut mantissa: Word = (0..mant)
        .map(|i| {
            if width >= mant {
                shifted[width - mant + i]
            } else if i >= mant - width {
                shifted[i - (mant - width)]
            } else {
                Signal::ZERO
            }
        })
        .collect();

    // Fraction bits by repeated squaring: square the mantissa (fixed
    // point, MSB weight 1); if the square is >= 2 the bit is 1 and we
    // keep the upper half, else the lower-shifted half.
    let mut frac = Vec::with_capacity(fbits);
    for _ in 0..fbits {
        let sq = mul(&mut m, &mantissa, &mantissa.clone());
        // sq has 2*mant bits; value = mantissa^2 with MSB weight 2.
        let top = sq[2 * mant - 1];
        frac.push(top);
        let hi: Word = (0..mant).map(|i| sq[mant + i]).collect();
        let lo: Word = (0..mant).map(|i| sq[mant - 1 + i]).collect();
        mantissa = mux_word(&mut m, top, &hi, &lo);
    }

    // Outputs: fraction (LSB first), then exponent (integer part).
    for s in frac.into_iter().rev() {
        m.add_output(s);
    }
    for s in e {
        m.add_output(s);
    }
    m
}

/// Reference model for [`log2`]: returns the output bus as an integer
/// (fraction LSB-first then exponent, matching the circuit's outputs).
pub fn model_log2(xv: u128, width: usize, ebits: usize, fbits: usize, mant: usize) -> u128 {
    // Priority encoder with 0 default.
    let mut e: u128 = 0;
    for i in (0..width).rev() {
        if (xv >> i) & 1 == 1 {
            e = i as u128;
            break;
        }
    }
    let shift = (width - 1) as u128 - e;
    let shifted = (xv << shift) & ((1u128 << width) - 1);
    let mut mantissa: u128 = if width >= mant {
        shifted >> (width - mant)
    } else {
        shifted << (mant - width)
    };
    let mut frac_bits: Vec<bool> = Vec::with_capacity(fbits);
    for _ in 0..fbits {
        let sq = mantissa * mantissa; // 2*mant bits
        let top = (sq >> (2 * mant - 1)) & 1 == 1;
        frac_bits.push(top);
        mantissa = if top {
            sq >> mant
        } else {
            (sq >> (mant - 1)) & ((1 << mant) - 1)
        };
        mantissa &= (1 << mant) - 1;
    }
    let mut out: u128 = 0;
    let mut pos = 0;
    for &b in frac_bits.iter().rev() {
        if b {
            out |= 1 << pos;
        }
        pos += 1;
    }
    out |= e << pos;
    let _ = ebits;
    out
}

/// The CORDIC arctangent table entry `atan(2^-i)` in turns of a
/// `zbits`-bit angle register that represents `[0, pi/2)`.
fn cordic_atan(i: usize, zbits: usize) -> u128 {
    // angle register: full scale (1 << zbits) == pi/2  =>
    // atan(2^-i) / (pi/2) * 2^zbits.
    let v = (2f64.powi(-(i as i32))).atan() / std::f64::consts::FRAC_PI_2;
    (v * (1u64 << zbits) as f64).round() as u128
}

/// The CORDIC gain-compensated initial x value: `1/K` with 1.0 scaled to
/// `1 << scale_bit` (chosen so the final `y` fits the output width even
/// with rounding overshoot).
fn cordic_x0(iters: usize, scale_bit: usize) -> u128 {
    let mut k = 1f64;
    for i in 0..iters {
        k *= (1.0 + 2f64.powi(-2 * (i as i32))).sqrt();
    }
    ((1.0 / k) * (1u64 << scale_bit) as f64).round() as u128
}

/// CORDIC sine: `abits`-bit angle in `[0, pi/2)` (full scale = pi/2) →
/// `obits`-bit sin value (EPFL *Sine*: 24 → 25). `iters` rotation steps.
pub fn sine(abits: usize, obits: usize, iters: usize) -> Mig {
    let w = obits + 2; // datapath width
    let mut m = Mig::new(abits);
    let theta = input_word(&m, 0, abits);
    // z register: sign-extended angle, zbits = abits.
    let mut z: Word = theta.clone();
    z.push(Signal::ZERO); // sign bit (angle is non-negative)
    let mut x = const_word(w, cordic_x0(iters, obits - 1));
    let mut y = zero_word(w);
    for i in 0..iters.min(w - 1) {
        let sign = *z.last().expect("z non-empty"); // 1 = z negative: rotate clockwise
        let xs = crate::words::sar_const(&x, i);
        let ys = crate::words::sar_const(&y, i);
        // z >= 0 (sign 0): x -= y>>i, y += x>>i, z -= atan
        // z < 0  (sign 1): x += y>>i, y -= x>>i, z += atan
        let nx = add_sub(&mut m, &x, &ys, !sign);
        let ny = add_sub(&mut m, &y, &xs, sign);
        let at = const_word(z.len(), cordic_atan(i, abits));
        let nz = add_sub(&mut m, &z, &at, !sign);
        x = nx;
        y = ny;
        z = nz;
    }
    for s in y.into_iter().take(obits) {
        m.add_output(s);
    }
    m
}

/// Reference model for [`sine`]: the same integer CORDIC, bit-exact.
pub fn model_sine(theta: u128, abits: usize, obits: usize, iters: usize) -> u128 {
    let w = obits + 2;
    let zw = abits + 1;
    let mask = |bits: usize| (1u128 << bits) - 1;
    let mut z = theta & mask(zw);
    let mut x = cordic_x0(iters, obits - 1) & mask(w);
    let mut y: u128 = 0;
    let sar = |v: u128, by: usize, bits: usize| -> u128 {
        let sign = (v >> (bits - 1)) & 1;
        let mut r = v >> by;
        if sign == 1 {
            // fill the top `by` bits with ones
            r |= (mask(by.min(bits))) << (bits - by.min(bits));
        }
        r & mask(bits)
    };
    for i in 0..iters.min(w - 1) {
        let sign = (z >> (zw - 1)) & 1 == 1;
        let xs = sar(x, i, w);
        let ys = sar(y, i, w);
        let at = cordic_atan(i, abits) & mask(zw);
        if sign {
            x = (x + ys) & mask(w);
            y = y.wrapping_sub(xs) & mask(w);
            z = (z + at) & mask(zw);
        } else {
            x = x.wrapping_sub(ys) & mask(w);
            y = (y + xs) & mask(w);
            z = z.wrapping_sub(at) & mask(zw);
        }
    }
    y & mask(obits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_of(v: u128, w: usize) -> Vec<bool> {
        (0..w).map(|i| (v >> i) & 1 == 1).collect()
    }

    fn to_u128(bits: &[bool]) -> u128 {
        bits.iter()
            .enumerate()
            .map(|(i, &b)| if b { 1 << i } else { 0 })
            .sum()
    }

    #[test]
    fn adder_small_exhaustive() {
        let m = adder(4);
        assert_eq!(m.num_inputs(), 8);
        assert_eq!(m.num_outputs(), 5);
        for a in 0..16u128 {
            for b in 0..16u128 {
                let mut asn = bits_of(a, 4);
                asn.extend(bits_of(b, 4));
                assert_eq!(to_u128(&m.evaluate(&asn)), a + b, "{a}+{b}");
            }
        }
    }

    #[test]
    fn multiplier_small_exhaustive() {
        let m = multiplier(4);
        for a in 0..16u128 {
            for b in 0..16u128 {
                let mut asn = bits_of(a, 4);
                asn.extend(bits_of(b, 4));
                assert_eq!(to_u128(&m.evaluate(&asn)), a * b, "{a}*{b}");
            }
        }
    }

    #[test]
    fn square_small_exhaustive() {
        let m = square(5);
        assert_eq!(m.num_inputs(), 5);
        assert_eq!(m.num_outputs(), 10);
        for a in 0..32u128 {
            assert_eq!(to_u128(&m.evaluate(&bits_of(a, 5))), a * a, "{a}^2");
        }
    }

    #[test]
    fn max4_small_exhaustive() {
        let w = 2;
        let m = max4(w);
        assert_eq!(m.num_inputs(), 4 * w);
        assert_eq!(m.num_outputs(), w + 2);
        for pat in 0..(1u128 << (4 * w)) {
            let vals = [pat & 3, (pat >> 2) & 3, (pat >> 4) & 3, (pat >> 6) & 3];
            let out = m.evaluate(&bits_of(pat, 4 * w));
            let got_max = to_u128(&out[..w]);
            let got_idx = to_u128(&out[w..]) as u32;
            let (want_max, want_idx) = model_max4(vals);
            assert_eq!(got_max, want_max, "max of {vals:?}");
            assert_eq!(got_idx, want_idx, "index of {vals:?}");
        }
    }

    #[test]
    fn divisor_small_exhaustive() {
        let w = 4;
        let m = divisor(w);
        for n in 0..16u128 {
            for d in 0..16u128 {
                let mut asn = bits_of(n, w);
                asn.extend(bits_of(d, w));
                let out = m.evaluate(&asn);
                let (q, r) = model_divisor(n, d, w);
                assert_eq!(to_u128(&out[..w]), q, "{n}/{d} quotient");
                assert_eq!(to_u128(&out[w..]), r, "{n}/{d} remainder");
                if let (Some(eq), Some(er)) = (n.checked_div(d), n.checked_rem(d)) {
                    assert_eq!(q, eq);
                    assert_eq!(r, er);
                }
            }
        }
    }

    #[test]
    fn square_root_small_exhaustive() {
        let w = 8;
        let m = square_root(w);
        assert_eq!(m.num_outputs(), w / 2);
        for n in 0..256u128 {
            let out = m.evaluate(&bits_of(n, w));
            assert_eq!(to_u128(&out), model_square_root(n), "sqrt({n})");
            assert_eq!(model_square_root(n), (n as f64).sqrt().floor() as u128);
        }
    }

    #[test]
    fn hypotenuse_small_exhaustive() {
        let w = 4;
        let m = hypotenuse(w);
        assert_eq!(m.num_inputs(), 2 * w);
        assert_eq!(m.num_outputs(), w + 1);
        for a in 0..16u128 {
            for b in 0..16u128 {
                let mut asn = bits_of(a, w);
                asn.extend(bits_of(b, w));
                let got = to_u128(&m.evaluate(&asn));
                assert_eq!(got, model_hypotenuse(a, b), "hyp({a},{b})");
            }
        }
        assert_eq!(model_hypotenuse(3, 4), 5);
    }

    #[test]
    fn log2_small_exhaustive() {
        let (w, e, f, mant) = (8, 3, 4, 6);
        let m = log2(w, e, f, mant);
        assert_eq!(m.num_inputs(), w);
        assert_eq!(m.num_outputs(), e + f);
        for x in 0..256u128 {
            let out = m.evaluate(&bits_of(x, w));
            let want = model_log2(x, w, e, f, mant);
            assert_eq!(to_u128(&out), want, "log2({x})");
        }
        // Spot-check semantics: log2(64) = 6.0 exactly.
        let out = to_u128(&m.evaluate(&bits_of(64, w)));
        assert_eq!(out >> f, 6);
        assert_eq!(out & ((1 << f) - 1), 0);
    }

    #[test]
    fn sine_small_exhaustive() {
        let (a, o, it) = (8, 9, 8);
        let m = sine(a, o, it);
        assert_eq!(m.num_inputs(), a);
        assert_eq!(m.num_outputs(), o);
        for theta in 0..256u128 {
            let out = m.evaluate(&bits_of(theta, a));
            assert_eq!(to_u128(&out), model_sine(theta, a, o, it), "sine({theta})");
        }
        // Semantics: sin(pi/2 - epsilon) should be near full scale.
        let hi = model_sine(255, a, o, it);
        let full = 1u128 << (o - 1);
        assert!(
            hi > full * 9 / 10 && hi < full * 11 / 10,
            "sin(~pi/2) = {hi} vs {full}"
        );
        // Monotone on a coarse grid.
        assert!(model_sine(32, a, o, it) < model_sine(128, a, o, it));
    }
}
