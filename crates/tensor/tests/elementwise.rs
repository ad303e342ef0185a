//! The elementwise kernels against their definition, a per-element
//! `apply` loop, to the bit; and the accuracy of the `f32` exp that
//! `Exp`, `Sigmoid` and `Erf` share.

use korch_tensor::{
    binary_scalar_lhs_tile, binary_scalar_tile, binary_tile, unary_tile, BinaryOp, Tensor, UnaryOp,
};

const UNARY: [UnaryOp; 12] = [
    UnaryOp::Exp,
    UnaryOp::Ln,
    UnaryOp::Relu,
    UnaryOp::LeakyRelu,
    UnaryOp::Sqrt,
    UnaryOp::Erf,
    UnaryOp::Neg,
    UnaryOp::Recip,
    UnaryOp::Tanh,
    UnaryOp::Sigmoid,
    UnaryOp::Abs,
    UnaryOp::Square,
];

const BINARY: [BinaryOp; 7] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Max,
    BinaryOp::Min,
    BinaryOp::Pow,
];

/// Covers every vector width's tail on either side of a full vector.
const LENGTHS: [usize; 10] = [0, 1, 7, 8, 9, 15, 16, 17, 33, 1000];

/// The special values, then ordinary ones around exp's and erf's ranges.
fn pool() -> Vec<f32> {
    let tiny = f32::from_bits(1);
    vec![
        f32::NAN,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        tiny,
        -tiny,
        f32::from_bits(0x007f_ffff),
        1e30,
        -1e30,
        1.0,
        -1.0,
        0.5,
        -2.75,
        3.0,
        1e-3,
        -87.4,
        88.8,
        100.0,
        -0.3,
    ]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `len` values cycling through the pool, and a second operand that
/// pairs every pool value with every other once `len >= pool²`.
fn operands(len: usize) -> (Vec<f32>, Vec<f32>) {
    let p = pool();
    let lhs = (0..len).map(|i| p[i % p.len()]).collect();
    let rhs = (0..len).map(|i| p[i / p.len() % p.len()]).collect();
    (lhs, rhs)
}

#[test]
fn unary_kernels_equal_a_per_element_apply_loop() {
    for len in LENGTHS {
        let (x, _) = operands(len);
        let t = Tensor::from_vec(vec![len], x.clone()).unwrap();
        for op in UNARY {
            let want: Vec<f32> = x.iter().map(|&v| op.apply(v)).collect();
            let mut tile = vec![f32::NAN; len];
            unary_tile(op, &x, &mut tile);
            assert_eq!(bits(&tile), bits(&want), "unary_tile {op:?} len {len}");
            let whole = t.unary(op);
            assert_eq!(whole.shape(), &[len]);
            assert_eq!(
                bits(whole.as_slice()),
                bits(&want),
                "unary {op:?} len {len}"
            );
        }
    }
}

#[test]
fn binary_kernels_equal_a_per_element_apply_loop() {
    for len in LENGTHS {
        let (a, b) = operands(len);
        let (ta, tb) = (
            Tensor::from_vec(vec![len], a.clone()).unwrap(),
            Tensor::from_vec(vec![len], b.clone()).unwrap(),
        );
        for op in BINARY {
            let want: Vec<f32> = a.iter().zip(&b).map(|(&x, &y)| op.apply(x, y)).collect();
            let mut tile = vec![f32::NAN; len];
            binary_tile(op, &a, &b, &mut tile);
            assert_eq!(bits(&tile), bits(&want), "binary_tile {op:?} len {len}");
            let whole = ta.binary(&tb, op).unwrap();
            assert_eq!(
                bits(whole.as_slice()),
                bits(&want),
                "binary {op:?} len {len}"
            );
            for c in pool() {
                let rhs: Vec<f32> = a.iter().map(|&x| op.apply(x, c)).collect();
                let lhs: Vec<f32> = a.iter().map(|&x| op.apply(c, x)).collect();
                binary_scalar_tile(op, &a, c, &mut tile);
                assert_eq!(bits(&tile), bits(&rhs), "scalar {op:?} {c} len {len}");
                let whole = ta.binary_scalar(c, op);
                assert_eq!(bits(whole.as_slice()), bits(&rhs), "{op:?} {c} len {len}");
                binary_scalar_lhs_tile(op, c, &a, &mut tile);
                assert_eq!(bits(&tile), bits(&lhs), "scalar-lhs {op:?} {c} len {len}");
                let whole = ta.binary_scalar_lhs(c, op);
                assert_eq!(bits(whole.as_slice()), bits(&lhs), "{op:?} {c} len {len}");
            }
        }
    }
    let short = Tensor::zeros(vec![3]);
    assert!(short
        .binary(&Tensor::zeros(vec![4]), BinaryOp::Add)
        .is_err());
}

/// Distance in representable `f32`s (both finite, or equal infinities).
fn ulps(a: f32, b: f32) -> u64 {
    let key = |v: f32| {
        let b = v.to_bits() as i32;
        i64::from(if b < 0 { i32::MIN - b } else { b })
    };
    key(a).abs_diff(key(b))
}

#[test]
fn exp_is_within_one_ulp_and_exact_at_the_edges() {
    let exp = |x: f32| UnaryOp::Exp.apply(x);
    let (mut checked, mut exact, mut max_ulps) = (0u64, 0u64, 0u64);
    for pattern in (0..=u32::MAX).step_by(1021) {
        let x = f32::from_bits(pattern);
        if !x.is_finite() {
            continue;
        }
        let want = (f64::from(x)).exp() as f32;
        let got = exp(x);
        if want.is_infinite() {
            assert_eq!(got, f32::INFINITY, "exp({x:e}) overflows");
        } else if want < f32::MIN_POSITIVE {
            assert_eq!(got.to_bits(), 0, "exp({x:e}) flushes to +0");
        } else {
            let d = ulps(got, want);
            assert!(d <= 1, "exp({x:e}) = {got:e}, want {want:e} ({d} ulps)");
            checked += 1;
            exact += u64::from(d == 0);
            max_ulps = max_ulps.max(d);
        }
    }
    assert!(checked > 500_000, "sweep shrank to {checked} points");
    println!(
        "exp: {checked} normal results, max {max_ulps} ulp, {:.2} % exact",
        100.0 * exact as f64 / checked as f64
    );

    assert!(exp(f32::NAN).is_nan());
    assert_eq!(exp(f32::INFINITY), f32::INFINITY);
    assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0);
    assert_eq!(exp(-0.0), 1.0);
    assert_eq!(exp(0.0), 1.0);
    // The last finite and first overflowing input, the last flushed and
    // first normal one.
    let max_finite = 88.722_83f32;
    let min_normal = -87.336_54f32;
    let outward = |v: f32| f32::from_bits(v.to_bits() + 1);
    let inward = |v: f32| f32::from_bits(v.to_bits() - 1);
    assert!(exp(max_finite).is_finite());
    assert!(ulps(exp(max_finite), (f64::from(max_finite)).exp() as f32) <= 1);
    assert_eq!(exp(outward(max_finite)), f32::INFINITY);
    assert_eq!(exp(1e4), f32::INFINITY);
    assert!(exp(min_normal) >= f32::MIN_POSITIVE);
    assert_eq!(
        exp(outward(min_normal)).to_bits(),
        0,
        "below the normal range"
    );
    assert_eq!(exp(-1e4).to_bits(), 0);
    assert!(((f64::from(outward(min_normal))).exp() as f32) < f32::MIN_POSITIVE);
    assert!(((f64::from(inward(max_finite))).exp() as f32).is_finite());
}

/// The Abramowitz–Stegun formula `UnaryOp::Erf` evaluates, over libm's
/// `exp` — what `Erf` computed before it shared the polynomial exp.
fn erf_libm(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254_829_6
            + t * (-0.284_496_72 + t * (1.421_413_8 + t * (-1.453_152_1 + t * 1.061_405_4))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[test]
fn erf_stays_within_2e7_of_its_libm_formula() {
    let mut max_diff = 0f32;
    for i in -600_000..=600_000 {
        let x = i as f32 * 1e-5;
        let d = (UnaryOp::Erf.apply(x) - erf_libm(x)).abs();
        max_diff = max_diff.max(d);
    }
    for x in [1e30, -1e30, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0] {
        assert_eq!(UnaryOp::Erf.apply(x), erf_libm(x), "erf({x})");
    }
    assert!(UnaryOp::Erf.apply(f32::NAN).is_nan());
    assert!(max_diff <= 2e-7, "erf moved by {max_diff:e}");
    println!("erf: max |new - libm formula| {max_diff:e} over [-6, 6]");
}
