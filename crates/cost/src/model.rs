//! The analytical latency model — the substitute for the paper's kernel
//! profiler (§5.2), which tunes memory-intensive kernels with TVM
//! MetaSchedule and dispatches compute-intensive kernels to vendor
//! libraries.
//!
//! A kernel's latency is roofline-style:
//!
//! - **memory-intensive** kernels (no linear primitive) cost
//!   `launch + bytes / (bandwidth · efficiency)`, where efficiency is
//!   derated by the number of distinct layout access patterns the generated
//!   kernel interleaves and — for generated kernels — collapses once the
//!   footprint of a heterogeneous fused kernel exceeds the L2-based
//!   threshold (reproducing paper Fig. 13);
//! - **compute-intensive** kernels cost
//!   `launch + max(flops / (peak · gemm_eff), bytes / bandwidth)`, where
//!   `gemm_eff` embeds a tile-quantization model that punishes extreme
//!   aspect ratios (reproducing the 3.52× layout effect of Fig. 8).

use crate::device::Device;
use crate::spec::{GemmShape, KernelClass, KernelSpec};

/// Which code-generation backend executes a kernel (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// TVM-MetaSchedule-style generated kernel (memory-intensive path).
    Generated,
    /// Vendor library (cuBLAS/cuDNN) kernel (compute-intensive path).
    Vendor,
    /// TensorRT runtime kernel (used by the TensorRT-like baseline).
    TrtRuntime,
}

/// Streaming bandwidth efficiency of every backend: MetaSchedule-tuned
/// memory kernels reach vendor-level bandwidth (the premise of TVM); the
/// backends differ on GEMMs and on the Fig. 13 over-fusion cliff, not on
/// plain streaming efficiency.
const MEM_EFFICIENCY: f64 = 0.85;

impl Backend {
    fn gemm_base_efficiency(self) -> f64 {
        match self {
            Backend::Generated => 0.45, // §6.2: TVM below TensorRT/cuBLAS
            Backend::Vendor => 0.85,
            Backend::TrtRuntime => 0.85,
        }
    }
}

/// Latency in microseconds (newtype so callers cannot confuse units).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Micros(pub f64);

impl Micros {
    /// Converts to milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 / 1000.0
    }
}

impl std::ops::Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl std::iter::Sum for Micros {
    fn sum<I: Iterator<Item = Micros>>(iter: I) -> Self {
        Micros(iter.map(|m| m.0).sum())
    }
}

/// One measured kernel execution, used to fit a [`Calibration`].
#[derive(Debug, Clone)]
pub struct CalibrationSample {
    /// The kernel that ran.
    pub spec: KernelSpec,
    /// The backend it ran on.
    pub backend: Backend,
    /// Measured wall time.
    pub measured: Micros,
}

/// Multiplicative corrections fitted from measured kernel wall times — the
/// feedback path from the `korch-runtime` profiler back into this
/// analytical model. Each factor scales one roofline component, so a model
/// fitted on one host transfers its *decision structure* (which kernel
/// wins) while matching that host's absolute times.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Scales the memory (bandwidth) term.
    pub memory_scale: f64,
    /// Scales the compute (FLOP) term.
    pub compute_scale: f64,
    /// Per-[`KernelClass`] refinement factors over the pooled scales,
    /// multiplying a kernel's whole body time. Lets the fit track a
    /// speedup that lands on one class only — e.g. the register-blocked
    /// matmul microkernel accelerating `GemmBlocked` kernels while
    /// `GemmSkinny` fallback rows and `Memory` sweeps are unchanged —
    /// so recalibration re-prices exactly the kernels that got faster.
    /// Classes absent here implicitly carry factor 1.0.
    pub class_scales: Vec<(KernelClass, f64)>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self {
            memory_scale: 1.0,
            compute_scale: 1.0,
            class_scales: Vec::new(),
        }
    }
}

impl Calibration {
    /// The refinement factor for one kernel class (1.0 when unfitted).
    pub fn class_factor(&self, class: KernelClass) -> f64 {
        self.class_scales
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(1.0, |&(_, f)| f)
    }

    /// Fits per-class scales by comparing measured wall times against an
    /// uncalibrated profiler's predictions: memory-intensive samples fit
    /// `memory_scale`, compute-intensive samples fit `compute_scale`
    /// (least-squares ratio of sums, robust to a few outliers), and each
    /// [`KernelClass`] with samples additionally gets a refinement factor
    /// — its own measured/predicted ratio divided by the pooled scale of
    /// its roofline branch — so a speedup confined to one class (e.g. the
    /// blocked-matmul microkernel) is priced for that class alone.
    /// Classes with no samples keep scale 1.0. Launch overhead is not
    /// fitted: whole-kernel timing alone cannot separate it from body time.
    pub fn fit(profiler: &Profiler, samples: &[CalibrationSample]) -> Self {
        let reference = Profiler {
            calibration: Calibration::default(),
            ..profiler.clone()
        };
        let (mut mem_measured, mut mem_predicted) = (0.0f64, 0.0f64);
        let (mut cmp_measured, mut cmp_predicted) = (0.0f64, 0.0f64);
        let mut by_class = [(0.0f64, 0.0f64); KernelClass::ALL.len()];
        for s in samples {
            // Fit on body time: launch overhead is common-mode and would
            // bias the ratio toward 1 for small kernels.
            let launch = reference.launch_us() * if s.spec.has_opaque { 2.0 } else { 1.0 };
            let predicted = reference.latency(&s.spec, s.backend).0 - launch;
            let measured = s.measured.0 - launch;
            if predicted <= 0.0 || !measured.is_finite() || measured <= 0.0 {
                continue;
            }
            if s.spec.is_compute_intensive() {
                cmp_measured += measured;
                cmp_predicted += predicted;
            } else {
                mem_measured += measured;
                mem_predicted += predicted;
            }
            let ci = KernelClass::ALL
                .iter()
                .position(|c| *c == s.spec.class())
                .expect("KernelClass::ALL covers every class");
            by_class[ci].0 += measured;
            by_class[ci].1 += predicted;
        }
        let ratio = |measured: f64, predicted: f64| {
            if predicted > 0.0 {
                measured / predicted
            } else {
                1.0
            }
        };
        let memory_scale = ratio(mem_measured, mem_predicted);
        let compute_scale = ratio(cmp_measured, cmp_predicted);
        let mut class_scales = Vec::new();
        for (ci, class) in KernelClass::ALL.into_iter().enumerate() {
            let (measured, predicted) = by_class[ci];
            if predicted <= 0.0 {
                continue; // no samples of this class: implicit 1.0
            }
            let pooled = if class == KernelClass::Memory {
                memory_scale
            } else {
                compute_scale
            };
            let refinement = if pooled > 0.0 {
                ratio(measured, predicted) / pooled
            } else {
                1.0
            };
            if (refinement - 1.0).abs() > 1e-12 {
                class_scales.push((class, refinement));
            }
        }
        Self {
            memory_scale,
            compute_scale,
            class_scales,
        }
    }
}

/// The kernel profiler substitute: prices [`KernelSpec`]s on a [`Device`].
#[derive(Debug, Clone)]
pub struct Profiler {
    device: Device,
    /// Extra per-kernel host dispatch overhead in µs (eager frameworks pay
    /// more than compiled runtimes; the PyTorch-like baseline sets this).
    pub dispatch_overhead_us: f64,
    /// Measured corrections applied to every priced kernel.
    calibration: Calibration,
}

impl Profiler {
    /// Profiler for a device with zero extra dispatch overhead.
    pub fn new(device: Device) -> Self {
        Self {
            device,
            dispatch_overhead_us: 0.0,
            calibration: Calibration::default(),
        }
    }

    /// The device being modeled.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The calibration currently applied.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// Replaces the calibration (builder style).
    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = calibration;
        self
    }

    /// Latency of one kernel on the given backend.
    pub fn latency(&self, spec: &KernelSpec, backend: Backend) -> Micros {
        if spec.has_opaque {
            return self.opaque_latency(spec);
        }
        let t_mem = self.memory_time_us(spec, backend);
        let t_compute = self.compute_time_us(spec, backend);
        let cf = self.calibration.class_factor(spec.class());
        Micros(self.launch_us() + t_mem.max(t_compute) * cf)
    }

    /// A lower bound on [`Profiler::latency`] over every spec and backend:
    /// the launch term, which every kernel pays at least once (for a
    /// non-negative calibration, as every [`Calibration::fit`] is).
    /// Kernel identification skips a member set whose floor per member
    /// cannot beat the worst candidate it keeps, so the bound must hold.
    pub fn latency_floor_us(&self) -> f64 {
        self.launch_us()
    }

    /// Per-kernel launch plus host dispatch overhead — the same for every
    /// backend: all three runtimes launch pre-compiled kernels from a
    /// compiled engine (paper §5.3 stitches Korch's kernels the same way).
    fn launch_us(&self) -> f64 {
        self.device.launch_overhead_us + self.dispatch_overhead_us
    }

    /// Opaque external kernels: pessimistic copy-bound estimate, the same
    /// on every backend and in every layout.
    fn opaque_latency(&self, spec: &KernelSpec) -> Micros {
        let t = spec.bytes_moved() as f64 / (self.device.mem_bw_gbps * 0.5 * 1000.0)
            * self.calibration.memory_scale;
        Micros(2.0 * self.launch_us() + t)
    }

    /// Simulated tuning time in seconds (Table 2 accounting): generated
    /// kernels pay MetaSchedule-style search, vendor kernels a lookup.
    pub fn tuning_time_s(&self, spec: &KernelSpec, backend: Backend) -> f64 {
        match backend {
            Backend::Generated => {
                // "most of them can be tuned within 2 minutes" (§5.2), with
                // a long tail for big heterogeneous kernels.
                let base = 2.0 + 1.5 * spec.n_prims as f64;
                let tail = if spec.pattern_classes >= 3
                    && spec.bytes_moved() > self.footprint_threshold_bytes()
                {
                    4.0
                } else {
                    1.0
                };
                base * tail
            }
            Backend::Vendor => 2.0,
            Backend::TrtRuntime => 3.0,
        }
    }

    fn footprint_threshold_bytes(&self) -> u64 {
        (self.device.l2_cache_mib * 32.0 * 1024.0 * 1024.0) as u64
    }

    fn memory_time_us(&self, spec: &KernelSpec, backend: Backend) -> f64 {
        let mut eff = MEM_EFFICIENCY;
        eff *= match spec.pattern_classes {
            0 | 1 => 1.0,
            2 => 0.85,
            _ => 0.72,
        };
        // Fig. 13: generated code for a large, *highly heterogeneous* fused
        // kernel (three or more access-pattern classes, working set far
        // beyond cache) cannot be scheduled well; bandwidth efficiency
        // collapses.
        if backend == Backend::Generated
            && spec.pattern_classes >= 3
            && spec.bytes_moved() > self.footprint_threshold_bytes()
        {
            eff *= 0.30;
        }
        spec.bytes_moved() as f64 / (self.device.mem_bw_gbps * eff * 1000.0)
            * self.calibration.memory_scale
    }

    fn compute_time_us(&self, spec: &KernelSpec, backend: Backend) -> f64 {
        // Non-linear FLOPs run on CUDA cores at modest efficiency; they are
        // almost always hidden behind memory time.
        let mut t = spec.pointwise_flops as f64 / (self.device.fp32_tflops * 0.5 * 1e6);
        let peak = self.device.linear_peak_tflops();
        for g in &spec.linear {
            let eff = backend.gemm_base_efficiency() * gemm_shape_efficiency(*g);
            t += g.flops() as f64 / (peak * eff * 1e6);
        }
        t * self.calibration.compute_scale
    }
}

/// Tile-quantization efficiency of a GEMM: balanced, large dimensions reach
/// 1.0; a dimension far below the hardware tile (64 for M/N, 32 for K)
/// starves the SMs. The minimum across dimensions dominates — this is what
/// makes the 1024:1 aspect-ratio matrix of Fig. 8 slow until Korch fixes
/// the layout.
pub fn gemm_shape_efficiency(g: GemmShape) -> f64 {
    let dim = |d: u64, tile: f64| ((d as f64 / tile).sqrt()).clamp(0.05, 1.0);
    // Batch helps fill the machine when per-matrix dims are small.
    let m_eff = dim(g.m * g.batch.min(8), 64.0);
    let n_eff = dim(g.n, 64.0);
    let k_eff = dim(g.k, 32.0);
    m_eff.min(n_eff).min(k_eff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mem_spec(bytes_in: u64, bytes_out: u64) -> KernelSpec {
        KernelSpec {
            n_prims: 2,
            input_bytes: bytes_in,
            output_bytes: bytes_out,
            pointwise_flops: (bytes_in / 4).max(1),
            linear: vec![],
            passes: 1,
            pattern_classes: 0,
            has_opaque: false,
        }
    }

    #[test]
    fn elementwise_kernel_is_bandwidth_bound() {
        // 6.4 MB in + 6.4 MB out ReLU-style kernel on V100 ≈ 0.02 ms
        // (paper Fig. 12a: 0.0242 ms for the TensorRT Relu kernel).
        let p = Profiler::new(Device::v100());
        let spec = mem_spec(6_422_528, 6_422_528);
        let t = p.latency(&spec, Backend::TrtRuntime);
        assert!(
            (0.015..0.035).contains(&t.as_millis()),
            "got {} ms, expected ≈0.024 ms",
            t.as_millis()
        );
    }

    #[test]
    fn launch_overhead_favors_fusion() {
        // One fused kernel over the same bytes must beat two kernels that
        // materialize an intermediate.
        let p = Profiler::new(Device::v100());
        let fused = p.latency(&mem_spec(1 << 20, 1 << 20), Backend::Generated);
        let k1 = p.latency(&mem_spec(1 << 20, 1 << 20), Backend::Generated);
        let k2 = p.latency(&mem_spec(1 << 20, 1 << 20), Backend::Generated);
        assert!(fused.0 < (k1 + k2).0);
    }

    #[test]
    fn multi_pass_reads_cost_more() {
        let p = Profiler::new(Device::v100());
        let mut one = mem_spec(1 << 22, 1 << 20);
        let mut two = one.clone();
        two.passes = 2;
        assert!(p.latency(&two, Backend::Generated).0 > p.latency(&one, Backend::Generated).0);
        one.passes = 1;
    }

    #[test]
    fn footprint_cliff_matches_fig13() {
        // Heterogeneous fused kernel: cheap at batch-1 footprint, collapses
        // at batch-16 footprint on the generated backend only.
        let p = Profiler::new(Device::v100());
        // small: 8 MiB moved (below the 24 MiB V100 threshold);
        // big: 512 MiB moved (batch-16 style, far beyond it).
        let small = KernelSpec {
            pattern_classes: 3,
            ..mem_spec(4 << 20, 4 << 20)
        };
        let big = KernelSpec {
            pattern_classes: 3,
            ..mem_spec(256 << 20, 256 << 20)
        };
        let t_small = p.latency(&small, Backend::Generated).0;
        let t_big = p.latency(&big, Backend::Generated).0;
        // 64x the bytes but much more than 64x the time (cliff engaged).
        assert!(
            t_big > 2.0 * 64.0 * t_small,
            "no cliff: {t_small} -> {t_big}"
        );
        // Vendor kernels see no cliff (ratio stays near the byte ratio).
        let v_small = p.latency(&small, Backend::Vendor).0;
        let v_big = p.latency(&big, Backend::Vendor).0;
        assert!(v_big < 80.0 * v_small);
    }

    #[test]
    fn gemm_aspect_ratio_penalty() {
        // Balanced 1024³ GEMM vs a 1024:1 aspect (n = 1) of equal FLOPs.
        let balanced = GemmShape {
            batch: 1,
            m: 1024,
            n: 1024,
            k: 1024,
            mr_rows: 1024,
        };
        let skinny = GemmShape {
            batch: 1,
            m: 1024 * 1024,
            n: 1,
            k: 1024,
            mr_rows: 1024 * 1024,
        };
        let e_b = gemm_shape_efficiency(balanced);
        let e_s = gemm_shape_efficiency(skinny);
        assert!(e_b > 0.9);
        assert!(
            e_b / e_s > 2.5 && e_b / e_s < 15.0,
            "Fig 8 layout effect should be a few-fold: {}",
            e_b / e_s
        );
    }

    #[test]
    fn compute_kernel_uses_tensor_cores_on_a100() {
        let spec = KernelSpec {
            linear: vec![GemmShape {
                batch: 1,
                m: 2048,
                n: 2048,
                k: 2048,
                mr_rows: 2048,
            }],
            ..mem_spec(48 << 20, 16 << 20)
        };
        let v100 = Profiler::new(Device::v100())
            .latency(&spec, Backend::Vendor)
            .0;
        let a100 = Profiler::new(Device::a100())
            .latency(&spec, Backend::Vendor)
            .0;
        // TF32 tensor cores + bigger BW: far faster than V100 FP32.
        assert!(a100 * 3.0 < v100, "a100={a100} v100={v100}");
    }

    #[test]
    fn vendor_beats_generated_for_gemm() {
        let spec = KernelSpec {
            linear: vec![GemmShape {
                batch: 1,
                m: 512,
                n: 512,
                k: 512,
                mr_rows: 512,
            }],
            ..mem_spec(3 << 20, 1 << 20)
        };
        let p = Profiler::new(Device::v100());
        assert!(p.latency(&spec, Backend::Vendor).0 < p.latency(&spec, Backend::Generated).0);
    }

    #[test]
    fn dispatch_overhead_models_eager_frameworks() {
        let mut p = Profiler::new(Device::v100());
        let spec = mem_spec(1 << 16, 1 << 16);
        let compiled = p.latency(&spec, Backend::Generated).0;
        p.dispatch_overhead_us = 10.0;
        let eager = p.latency(&spec, Backend::Generated).0;
        assert!((eager - compiled - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tuning_time_scales_with_kernel_size_and_tail() {
        let p = Profiler::new(Device::v100());
        let small = mem_spec(1 << 10, 1 << 10);
        let mut big = mem_spec(400 << 20, 400 << 20);
        big.n_prims = 10;
        big.pattern_classes = 3;
        let t_small = p.tuning_time_s(&small, Backend::Generated);
        let t_big = p.tuning_time_s(&big, Backend::Generated);
        assert!(t_small < 120.0, "§5.2: most kernels tune within 2 minutes");
        assert!(t_big > 60.0, "long tail for heterogeneous big kernels");
        assert_eq!(p.tuning_time_s(&small, Backend::Vendor), 2.0);
    }

    #[test]
    fn calibration_fit_recovers_per_class_scales() {
        // Synthesize measurements from a "host" that is 3x slower on
        // memory-bound kernels and 0.5x on compute-bound ones; the fit must
        // recover both factors and the calibrated model must predict the
        // measurements.
        let base = Profiler::new(Device::v100());
        let mem = mem_spec(8 << 20, 8 << 20);
        let cmp = KernelSpec {
            linear: vec![GemmShape {
                batch: 1,
                m: 512,
                n: 512,
                k: 512,
                mr_rows: 512,
            }],
            ..mem_spec(3 << 20, 1 << 20)
        };
        let truth = base.clone().with_calibration(Calibration {
            memory_scale: 3.0,
            compute_scale: 0.5,
            ..Calibration::default()
        });
        let samples: Vec<CalibrationSample> = [
            (mem.clone(), Backend::Generated),
            (mem.clone(), Backend::Vendor),
            (cmp.clone(), Backend::Vendor),
            (cmp.clone(), Backend::Generated),
        ]
        .into_iter()
        .map(|(spec, backend)| CalibrationSample {
            measured: truth.latency(&spec, backend),
            spec,
            backend,
        })
        .collect();
        let fit = Calibration::fit(&base, &samples);
        // Launch time is folded into the class scale by the ratio fit, so
        // the recovered factors are close to (not exactly) the truth.
        assert!(
            (fit.memory_scale - 3.0).abs() < 0.3,
            "memory {}",
            fit.memory_scale
        );
        assert!(
            (fit.compute_scale - 0.5).abs() < 0.2,
            "compute {}",
            fit.compute_scale
        );
        let fitted = base.clone().with_calibration(fit);
        for s in &samples {
            let predicted = fitted.latency(&s.spec, s.backend).0;
            let err = (predicted - s.measured.0).abs() / s.measured.0;
            assert!(err < 0.25, "calibrated prediction off by {err}");
        }
    }

    #[test]
    fn calibration_tracks_a_class_speedup_independently() {
        // A host-side kernel-class speedup — e.g. swapping the naive
        // matmul contraction for the packed/blocked microkernel — shows
        // up ONLY in that class's scale: compute samples land 3× faster
        // than predicted, memory samples match exactly, and the fit must
        // move compute_scale toward 1/3 while leaving memory_scale at 1.
        let base = Profiler::new(Device::v100());
        let mem = mem_spec(8 << 20, 8 << 20);
        let cmp = KernelSpec {
            linear: vec![GemmShape {
                batch: 1,
                m: 512,
                n: 512,
                k: 512,
                mr_rows: 512,
            }],
            ..mem_spec(3 << 20, 1 << 20)
        };
        let launch = base.device().launch_overhead_us;
        let sped_up = |spec: &KernelSpec, backend: Backend| {
            let body = base.latency(spec, backend).0 - launch;
            Micros(launch + body / 3.0)
        };
        let samples = vec![
            CalibrationSample {
                measured: base.latency(&mem, Backend::Generated),
                spec: mem.clone(),
                backend: Backend::Generated,
            },
            CalibrationSample {
                measured: sped_up(&cmp, Backend::Vendor),
                spec: cmp.clone(),
                backend: Backend::Vendor,
            },
            CalibrationSample {
                measured: sped_up(&cmp, Backend::Generated),
                spec: cmp,
                backend: Backend::Generated,
            },
        ];
        let fit = Calibration::fit(&base, &samples);
        assert!(
            (fit.memory_scale - 1.0).abs() < 1e-9,
            "memory class saw no speedup, scale must stay 1: {}",
            fit.memory_scale
        );
        assert!(
            (fit.compute_scale - 1.0 / 3.0).abs() < 1e-6,
            "compute class sped up 3×, scale must track it: {}",
            fit.compute_scale
        );
    }

    #[test]
    fn calibration_defaults_are_identity() {
        let p = Profiler::new(Device::v100());
        let spec = mem_spec(1 << 20, 1 << 20);
        let calibrated = p.clone().with_calibration(Calibration::default());
        for b in [Backend::Generated, Backend::Vendor, Backend::TrtRuntime] {
            assert_eq!(p.latency(&spec, b).0, calibrated.latency(&spec, b).0);
        }
        assert_eq!(Calibration::fit(&p, &[]), Calibration::default());
    }

    #[test]
    fn latency_matches_recorded_bits() {
        // Recorded bit patterns of `latency`, calibrated
        // so every scale is exercised: a refactor of the model must return
        // exactly these, not merely something close.
        let p = Profiler::new(Device::v100()).with_calibration(Calibration {
            memory_scale: 2.5,
            compute_scale: 0.4,
            class_scales: vec![(KernelClass::GemmBlocked, 0.5), (KernelClass::Memory, 0.9)],
        });
        let memory_bound = KernelSpec {
            passes: 2,
            pattern_classes: 3,
            pointwise_flops: 1 << 20,
            ..mem_spec(256 << 20, 256 << 20)
        };
        let gemm = KernelSpec {
            linear: vec![GemmShape {
                batch: 1,
                m: 512,
                n: 512,
                k: 512,
                mr_rows: 512,
            }],
            pattern_classes: 1,
            pointwise_flops: 1 << 20,
            ..mem_spec(3 << 20, 1 << 20)
        };
        let opaque = KernelSpec {
            has_opaque: true,
            ..memory_bound.clone()
        };
        // [generated, vendor, trt-runtime]
        let golden: [(&KernelSpec, [u64; 3]); 3] = [
            (
                &memory_bound,
                [0x40c56d40156ac017, 0x40a9bd4ce68019b3, 0x40a9bd4ce68019b3],
            ),
            (
                &gemm,
                [0x40294060a7beedc8, 0x4027b4f5d04451fa, 0x4027b4f5d04451fa],
            ),
            (&opaque, [0x40b183ec9cbd821e; 3]),
        ];
        let backends = [Backend::Generated, Backend::Vendor, Backend::TrtRuntime];
        for (spec, latencies) in golden {
            for (backend, bits) in backends.into_iter().zip(latencies) {
                let latency = p.latency(spec, backend).0.to_bits();
                assert_eq!(latency, bits, "{backend:?} {spec:?}");
            }
        }
    }

    #[test]
    fn opaque_kernels_priced_pessimistically() {
        let p = Profiler::new(Device::v100());
        let mut spec = mem_spec(1 << 20, 1 << 20);
        let normal = p.latency(&spec, Backend::Generated).0;
        spec.has_opaque = true;
        let opaque = p.latency(&spec, Backend::Generated).0;
        assert!(opaque > normal);
    }

    /// A random kernel: up to two GEMMs, any pass and pattern count,
    /// opaque or not, its sizes log-uniform from nothing (a launch-only
    /// kernel) to gigabytes.
    fn arb_spec() -> impl Strategy<Value = KernelSpec> {
        let size = |bits: u32| (0..bits).prop_map(|e| (1u64 << e) - 1);
        let gemm = (size(7), size(13), size(13), size(13)).prop_map(|(batch, m, n, k)| GemmShape {
            batch,
            m,
            n,
            k,
            mr_rows: m,
        });
        let sizes = (1usize..24, size(31), size(31), size(33));
        let shape = (1u32..4, 0u32..5, prop::bool::ANY);
        (sizes, prop::collection::vec(gemm, 0..3), shape).prop_map(
            |((n_prims, input_bytes, output_bytes, pointwise_flops), linear, shape)| KernelSpec {
                n_prims,
                input_bytes,
                output_bytes,
                pointwise_flops,
                linear,
                passes: shape.0,
                pattern_classes: shape.1,
                has_opaque: shape.2,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `latency_floor_us` bounds every price from below, on every
        /// device and backend, with the eager baseline's dispatch overhead
        /// and under a calibration fitted to measurements 0.05–20× off.
        #[test]
        fn latency_floor_bounds_every_price(
            specs in prop::collection::vec(arb_spec(), 1..6),
            factors in prop::collection::vec(0.05f64..20.0, 6),
            device in 0usize..4,
            eager in prop::bool::ANY,
        ) {
            let backends = [Backend::Generated, Backend::Vendor, Backend::TrtRuntime];
            let mut base = Profiler::new(Device::generations()[device].clone());
            if eager {
                base.dispatch_overhead_us = 8.0; // the PyTorch-like baseline's
            }
            let samples: Vec<CalibrationSample> = (specs.iter().zip(&factors))
                .zip(backends.iter().cycle())
                .map(|((spec, f), &backend)| CalibrationSample {
                    spec: spec.clone(),
                    backend,
                    measured: Micros(base.latency(spec, backend).0 * f),
                })
                .collect();
            let fitted = base.clone().with_calibration(Calibration::fit(&base, &samples));
            for p in [&base, &fitted] {
                let floor = p.latency_floor_us();
                prop_assert!(floor > 0.0);
                for spec in &specs {
                    for b in backends {
                        let latency = p.latency(spec, b).0;
                        prop_assert!(latency >= floor, "{b:?} {spec:?}: {latency} < {floor}");
                    }
                }
            }
        }
    }
}
