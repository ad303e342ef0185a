//! Packed operand panels and the MR×NR register-blocked microkernel
//! behind matmul and conv, and the direct loop behind depthwise conv.
//!
//! [`Tensor::matmul_rows_packed`](crate::Tensor::matmul_rows_packed)
//! (hence [`Tensor::matmul`](crate::Tensor::matmul)) and
//! [`Tensor::conv2d`](crate::Tensor::conv2d) all drive the kernels here
//! instead of a naive per-element contraction. The design is the
//! classic GEBP pack-then-microkernel split:
//!
//! - [`PackedB`] lays the right operand out as row-major `[k][n]` panels —
//!   one per batch — so the inner loop always reads B with unit stride.
//!   When the operand is already in that layout (`trans_b == false`) the
//!   pack is **zero-copy**: the panel view borrows the tensor's own
//!   storage. Only `trans_b` pays a one-time transposed copy. A panel is
//!   immutable after construction, so callers (the `korch-runtime` tile
//!   executor) pack **once per kernel** and share the panel read-only
//!   across sibling row tiles;
//! - the microkernel computes [`MR`] output rows at a time over
//!   fixed-width accumulator blocks (`NB` columns per row): the whole
//!   `MR × NB` accumulator lives in vector registers while `p` sweeps the
//!   contraction, so each loaded B block `b(p, j..j+NB)` feeds `MR`
//!   independent multiply-accumulate chains (hiding the FP add latency a
//!   single row's serial accumulator chain exposes) and B traffic drops
//!   by `MR`×. rustc autovectorizes the block loops for the build's
//!   `target-cpu` without target-specific intrinsics; a `trans_a` left
//!   operand is gathered once per group into a packed `[MR][k]` scratch
//!   panel so every A row the kernel reads is unit-stride;
//! - there is one block body, `mm_block`, generic over its row count `G`
//!   and accumulator width `W` so both are compile-time trip counts, each
//!   instantiation a function of its own (its loop then sits where the
//!   build's function alignment puts it, whatever is emitted around it).
//!   The column sweep (`mm_rows`) runs it at
//!   `W = NB` while `NB` columns remain, then covers the `n % NB` tail
//!   with at most one 16-wide and one 8-wide block — so a product whose
//!   `n` is narrower than `NB` (attention's `n = 16`, a conv's 4×4 output
//!   plane) keeps its accumulators in registers too — and only the last
//!   `n % 8` columns run a block with a run-time width;
//! - row groups smaller than `MR` (the `m % MR` remainder, or tiny row
//!   tiles) run the same sweep row-at-a-time — the `G = 1` instantiation;
//! - a conv stages its input once, zero-padded and split into stride
//!   phases (`stage`): tap `(ky, kx)` at output `(oy, ox)` is then
//!   `phase[ky % s][kx % s][oy + ky/s][ox + kx/s]`, unit stride along `ox`
//!   for every stride, padding included. Two loops read the staging. A
//!   **depthwise** conv (one input and one output channel per group) runs
//!   the direct loop `conv_depthwise`: per channel and tap, one
//!   multiply-add over the flattened span of the staged phase, in
//!   register blocks. **Every other** conv is the same microkernel on
//!   other operands (`conv_panel`): the rows are output channels, the
//!   left operand the weight's OIHW rows as stored, the right operand a
//!   `[K][OH·OW]` column panel of input taps — borrowed for a pointwise
//!   conv, otherwise filled by contiguous row copies out of the staging
//!   (`fill_panel`), one cache-sized column block at a time into a
//!   per-call scratch.
//!
//! # The MR×NR contract: bit-identity with the scalar path
//!
//! Every blocking level here is a pure loop interchange / operand
//! re-staging of the naive kernel; none of them touch the per-element
//! arithmetic:
//!
//! - each output element `o(i, j)` accumulates `a(i, p) * b(p, j)` in
//!   ascending `p` order, skipping `a(i, p) == 0.0` terms **per
//!   element**, starting from `0.0` — exactly the op sequence of the
//!   historical triple loop (register accumulation followed by one store
//!   is the same IEEE operation sequence as in-memory accumulation);
//! - no FMA contraction and no re-association is introduced: grouping
//!   `G` rows or `W` columns — at any of the widths above — only changes
//!   *which* independent elements are interleaved in time, never the
//!   operation order within one element's accumulation chain;
//! - packing (the B panel, and the `[MR][k]` A panel of a `trans_a` row
//!   group) is a value copy: the arithmetic reads the same `f32` values
//!   the naive kernel would have gathered per element, in the same order.
//!
//! Hence blocked results are **bit identical** to the scalar reference
//! for every shape, transpose flag, row partition and `MR`/`NB` choice —
//! which is also why the `korch-runtime` tile executor may split output
//! rows at any grain without changing a single output bit.
//!
//! ## One contract for every conv path
//!
//! The historical conv loop kept one accumulator per output element,
//! started at `0.0`, and added `x · w` over `(ci, ky, kx)` ascending,
//! skipping taps that fall in the padding. Both conv loops keep that
//! chain and change the same two things, which cannot change a bit while
//! operands are finite:
//!
//! - the panel's rows — and the depthwise loop's taps — are in
//!   `(ci, ky, kx)` order, so each output element still sees its terms in
//!   the loop's order, and the staging and the panel are value copies
//!   (`w · x` and `x · w` are the same IEEE product);
//! - a padded tap is a staged `0.0`, so it adds `w · 0.0 = ±0.0` where the
//!   loop added nothing, and a weight of exactly `0.0` is skipped (by the
//!   microkernel's zero-skip, or dropped from the depthwise tap list)
//!   where the loop added `0.0 · x = ±0.0`. An accumulator that starts at
//!   `+0.0` is never `-0.0` (a sum is `-0.0` only when both addends are),
//!   and `acc + ±0.0 == acc` bitwise for every other `acc`.
//!
//! Column blocks, staging windows, channel groups and the depthwise
//! loop's discarded wide columns only choose which independent elements
//! are computed together. Outside the finite domain the two changes are
//! visible — `0.0 · ∞` is skipped, `∞ · padding` is not — identically on
//! every path; see [`crate::linear`]'s "Outside the finite domain" and the
//! `conv_non_finite_contract` test below.

use crate::{Tensor, TensorError};
use std::ops::Range;

/// Accumulator width of the microkernel: output columns computed per
/// register block. 32 `f32` lanes = two cache lines = two AVX-512 (four
/// AVX2) vector registers per accumulator row.
const NB: usize = 32;

/// Row height of the register-blocked microkernel: output rows whose
/// `NB`-wide accumulators are held in registers simultaneously while `p`
/// sweeps the contraction. Each B block loaded from cache feeds `MR`
/// independent accumulation chains — `MR × NB = 192` accumulator lanes =
/// 12 AVX-512 registers, leaving room for the B block and broadcasts —
/// and B is streamed `MR`× less often. `korch-runtime` aligns row-tile
/// grains to this constant so tiles are made of whole MR groups
/// (alignment is a performance choice only — bit-identity holds for any
/// partition, see the module docs).
pub const MR: usize = 6;

/// The right operand of a matmul, packed into row-major `[k][n]` panels
/// (one per batch) for unit-stride access in the row microkernel.
///
/// Construction is zero-copy when the operand is already `[k][n]`
/// row-major (`trans_b == false`); a `trans_b` operand is transposed into
/// an owned buffer once. The panel is read-only after packing — the
/// sharing contract that lets `korch-runtime` pack a kernel's B panel
/// once at decomposition and hand the same panel to every sibling tile.
#[derive(Debug, Clone)]
pub struct PackedB {
    /// Owned transposed panels (`trans_b`), or `None` when the raw tensor
    /// storage already has panel layout.
    data: Option<Vec<f32>>,
    batch: usize,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Packs `rhs` as the right operand of a matmul with the given
    /// `trans_b` flag. Zero-copy for `trans_b == false`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `rhs` has rank < 2.
    pub fn pack(rhs: &Tensor, trans_b: bool) -> Result<PackedB, TensorError> {
        let rb = rhs.rank();
        if rb < 2 {
            return Err(TensorError::ShapeMismatch {
                lhs: rhs.shape().to_vec(),
                rhs: rhs.shape().to_vec(),
            });
        }
        let (bk, bn) = (rhs.shape()[rb - 2], rhs.shape()[rb - 1]);
        let batch: usize = rhs.shape()[..rb - 2].iter().product();
        let (k, n) = if trans_b { (bn, bk) } else { (bk, bn) };
        let data = if trans_b {
            let b = rhs.as_slice();
            let mut packed = vec![0.0f32; batch * k * n];
            for bi in 0..batch {
                let bb = &b[bi * bk * bn..(bi + 1) * bk * bn];
                let pb = &mut packed[bi * k * n..(bi + 1) * k * n];
                // packed[p][j] = B[j][p]: the value the naive kernel reads
                // as `bb[j * bn + p]` — sequential reads, strided writes.
                for j in 0..n {
                    let row = &bb[j * bn..(j + 1) * bn];
                    for (p, &v) in row.iter().enumerate() {
                        pb[p * n + j] = v;
                    }
                }
            }
            Some(packed)
        } else {
            None
        };
        Ok(PackedB { data, batch, k, n })
    }

    /// Contraction length of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output columns of the packed operand.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of batch panels.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Whether the pack owns a transposed copy (`trans_b`) or borrows the
    /// operand's storage at use time (zero-copy).
    pub fn is_owned(&self) -> bool {
        self.data.is_some()
    }

    /// The `[k][n]` panel of batch `bi`. `raw` is the right operand's
    /// storage, consulted only on the zero-copy path.
    fn panel<'a>(&'a self, raw: &'a [f32], bi: usize) -> &'a [f32] {
        let stride = self.k * self.n;
        match &self.data {
            Some(d) => &d[bi * stride..(bi + 1) * stride],
            None => &raw[bi * stride..(bi + 1) * stride],
        }
    }
}

/// One register block of the microkernel: `G` output rows × columns
/// `j..j + w` against one B panel, the whole `G × W` accumulator in
/// registers while `p` sweeps the contraction, so each B block
/// `b(p, j..j + w)` is loaded once and feeds `G` independent accumulation
/// chains. `w` is `W` — a compile-time trip count for the column loops —
/// when `FULL`, and the run-time `tail` (`< W`) for the one variable
/// block of a sweep. Operands as in [`mm_group_blocked`].
///
/// Every element `o(r, j + t)` sees its terms in ascending `p` from `0.0`
/// with the per-element zero-skip, whatever `G` and `W` — the rows and
/// columns of a block are independent accumulation chains (module docs:
/// the MR×NR contract).
///
/// Never inlined: each instantiation is a function of its own, so the
/// build's 64-byte function alignment (`.cargo/config.toml`) fixes where
/// its `p` loop sits in the fetch windows. Inlined into one sweep
/// function, the same loop measured 36–40 GFLOP/s on the 16→32 3×3 conv
/// depending on what was emitted before it.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn mm_block<const G: usize, const W: usize, const FULL: bool>(
    a_base: &[f32],
    row_stride: usize,
    k: usize,
    panel: &[f32],
    n: usize,
    j: usize,
    tail: usize,
    orows: &mut [f32],
    o_stride: usize,
) {
    let w = if FULL { W } else { tail };
    let mut acc = [[0.0f32; W]; G];
    for p in 0..k {
        let bv = &panel[p * n + j..p * n + j + w];
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = a_base[r * row_stride + p];
            if av == 0.0 {
                continue;
            }
            for t in 0..w {
                accr[t] += av * bv[t];
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        orows[r * o_stride + j..r * o_stride + j + w].copy_from_slice(&accr[..w]);
    }
}

/// Sweeps [`mm_block`] over all `n` columns of `G` output rows: [`NB`]-wide
/// blocks, then what is left as at most one 16- and one 8-wide block — so
/// a narrow product (`n = 16`, a conv's 4×4 output plane) still runs with
/// a compile-time width — and a last block of `n % 8 < 8` columns, the only
/// one with a run-time trip count.
#[allow(clippy::too_many_arguments)]
fn mm_rows<const G: usize>(
    a_base: &[f32],
    row_stride: usize,
    k: usize,
    panel: &[f32],
    n: usize,
    orows: &mut [f32],
    o_stride: usize,
) {
    let mut j = 0;
    while j + NB <= n {
        mm_block::<G, NB, true>(a_base, row_stride, k, panel, n, j, 0, orows, o_stride);
        j += NB;
    }
    if j + 16 <= n {
        mm_block::<G, 16, true>(a_base, row_stride, k, panel, n, j, 0, orows, o_stride);
        j += 16;
    }
    if j + 8 <= n {
        mm_block::<G, 8, true>(a_base, row_stride, k, panel, n, j, 0, orows, o_stride);
        j += 8;
    }
    if j < n {
        mm_block::<G, 8, false>(a_base, row_stride, k, panel, n, j, n - j, orows, o_stride);
    }
}

/// The MR×NB register-blocked microkernel: computes a group of `g ≤`
/// [`MR`] output rows against one B panel. Logical A row `r` of the
/// group is the unit-stride slice `a_base[r * row_stride..][..k]` (the
/// contiguous storage rows when `trans_a == false`, the packed `[MR][k]`
/// gather otherwise); output row `r` is `orows[r * o_stride..][..n]` —
/// `o_stride == n` for a matmul's contiguous rows, the full output-plane
/// width when a conv computes one column block of it.
///
/// A full group runs [`mm_rows`] at `G = MR`: `MR` independent chains per
/// B block load, which both cuts B traffic `MR`× and hides the FP add
/// latency a single serial accumulator chain exposes. Remainder groups
/// (`g < MR`, at a batch edge, range end or tiny tile) run the same body
/// row-at-a-time — the `G = 1` instantiation. Reordering *between* rows
/// changes nothing in any element's own chain.
#[allow(clippy::too_many_arguments)]
fn mm_group_blocked(
    a_base: &[f32],
    row_stride: usize,
    g: usize,
    k: usize,
    panel: &[f32],
    n: usize,
    orows: &mut [f32],
    o_stride: usize,
) {
    debug_assert!((1..=MR).contains(&g));
    debug_assert!(o_stride >= n && orows.len() >= (g - 1) * o_stride + n);
    if g == MR {
        return mm_rows::<MR>(a_base, row_stride, k, panel, n, orows, o_stride);
    }
    for r in 0..g {
        let (arow, orow) = (&a_base[r * row_stride..], &mut orows[r * o_stride..]);
        mm_rows::<1>(arow, row_stride, k, panel, n, orow, o_stride);
    }
}

/// Computes output rows `rows` (indexing the flattened `batch × m`
/// leading dims) of a matmul whose right operand was packed into
/// `packed`, writing `rows.len() * n` elements into `out`. Callers have
/// validated shapes; `am`/`ak` are the left operand's trailing dims as
/// stored and `m` the logical output rows per batch.
///
/// Rows are processed in [`MR`]-high groups that never straddle a batch
/// boundary (the panel changes there); a group's A rows are the
/// contiguous storage rows when `trans_a == false`, or gathered once into
/// a packed `[MR][k]` scratch panel otherwise (a value copy — the
/// arithmetic never sees it), then handed to [`mm_group_blocked`].
/// Leftover rows (`< MR` at a batch edge or range end) run as a smaller
/// group of the same kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_rows_blocked(
    a: &[f32],
    b_raw: &[f32],
    packed: &PackedB,
    trans_a: bool,
    am: usize,
    ak: usize,
    m: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let (k, n) = (packed.k, packed.n);
    let a_stride = am * ak;
    // Scratch for the `trans_a` gather, allocated once per call: the row
    // group packed `[MR][k]` so each logical row is a unit-stride slice.
    let mut apanel = if trans_a {
        vec![0.0f32; MR * k]
    } else {
        Vec::new()
    };
    let mut row = rows.start;
    while row < rows.end {
        let bi = row / m;
        let batch_end = rows.end.min((bi + 1) * m);
        let ab = &a[bi * a_stride..(bi + 1) * a_stride];
        let panel = packed.panel(b_raw, bi);
        while row < batch_end {
            let g = MR.min(batch_end - row);
            let i = row % m;
            let off = (row - rows.start) * n;
            let orows = &mut out[off..off + g * n];
            if trans_a {
                // Pack the group: apanel[r][p] = a(i + r, p) = ab[p][i + r].
                for p in 0..k {
                    let src = &ab[p * ak + i..p * ak + i + g];
                    for (r, &v) in src.iter().enumerate() {
                        apanel[r * k + p] = v;
                    }
                }
                mm_group_blocked(&apanel, k, g, k, panel, n, orows, n);
            } else {
                mm_group_blocked(&ab[i * ak..], ak, g, k, panel, n, orows, n);
            }
            row += g;
        }
    }
}

/// Budget of the conv column panel in `f32` elements (96 KB): a block of
/// `[K][nc]` this size stays L2-resident while every output-channel group
/// sweeps it, and the scratch allocation stays under the allocator's
/// 128 KB mmap threshold. (Measured on the 16→32 3×3 / 32×32 conv: 32 KB
/// 31 GFLOP/s, 64–124 KB 36–37.)
const CONV_PANEL_ELEMS: usize = 24 * 1024;

/// Output elements one block of the direct depthwise loop keeps in
/// registers while it sweeps the taps: 64 `f32` lanes = eight 256-bit
/// vector registers (the width rustc's autovectorizer picks on AVX-512
/// hosts too), so each tap feeds eight independent accumulation chains.
const DW_BLOCK: usize = 64;

/// Geometry of a validated 2-D convolution (see
/// [`Tensor::conv2d`](crate::Tensor::conv2d)), shared by the driver, the
/// staging and the two loops that read it.
pub(crate) struct ConvGeom {
    /// Input `[N, C, H, W]`.
    pub input: [usize; 4],
    /// Weight `[O, C/groups, KH, KW]`.
    pub weight: [usize; 4],
    /// Output plane `[OH, OW]`.
    pub out: [usize; 2],
    /// Square stride.
    pub stride: usize,
    /// Symmetric zero padding.
    pub padding: usize,
    /// Channel groups.
    pub groups: usize,
}

impl ConvGeom {
    /// Stride phases a tap can fall in, `[min(s, KH), min(s, KW)]`: tap
    /// `(ky, kx)` reads phase `(ky % s, kx % s)`, so a kernel narrower
    /// than the stride never reads the others.
    fn phases(&self) -> [usize; 2] {
        let [_, _, kh, kw] = self.weight;
        [self.stride.min(kh), self.stride.min(kw)]
    }

    /// Whether the conv is depthwise — one input and one output channel
    /// per group — and so runs the direct loop instead of the panel.
    fn is_depthwise(&self) -> bool {
        let [_, c, _, _] = self.input;
        c == self.groups && self.weight[0] == self.groups
    }

    /// How far past an output row or column its taps reach in a phase
    /// plane: `[(KH−1)/s, (KW−1)/s]`.
    fn halo(&self) -> [usize; 2] {
        let [_, _, kh, kw] = self.weight;
        [(kh - 1) / self.stride, (kw - 1) / self.stride]
    }

    /// The window of phase rows and phase columns that output columns
    /// `cols` (`j = oy·OW + ox`) read: their output rows, and their output
    /// columns when they lie in one row (all columns otherwise), each
    /// widened by the halo.
    fn window(&self, cols: Range<usize>) -> [Range<usize>; 2] {
        let ow = self.out[1];
        let [hy, hx] = self.halo();
        let (first, last) = (cols.start / ow, (cols.end - 1) / ow);
        let xs = if first == last {
            cols.start % ow..(cols.end - 1) % ow + 1
        } else {
            0..ow
        };
        [first..last + 1 + hy, xs.start..xs.end + hx]
    }

    /// Elements a staged window occupies: one `rows × cols` plane per
    /// phase.
    fn staged_len(&self, window: &[Range<usize>; 2]) -> usize {
        let [sy, sx] = self.phases();
        sy * sx * window[0].len() * window[1].len()
    }

    /// Offsets of the taps `(ky, kx)`, ascending, in a staged window
    /// `[rows, cols]` high and wide: tap `t` of the output at
    /// window-relative position `(y, x)` is `staged[offsets[t] + y·cols + x]`.
    fn tap_offsets(&self, [rows, cols]: [usize; 2]) -> Vec<usize> {
        let [_, _, kh, kw] = self.weight;
        let (s, sx) = (self.stride, self.phases()[1]);
        let mut offsets = Vec::with_capacity(kh * kw);
        for ky in 0..kh {
            for kx in 0..kw {
                let phase = (ky % s) * sx + kx % s;
                offsets.push((phase * rows + ky / s) * cols + kx / s);
            }
        }
        offsets
    }
}

/// Stages `window` of one input channel `plane` (`[H][W]`) for the conv
/// loops: the zero-padded plane split into its stride phases, phase
/// `(py, px)` holding padded rows `py + s·i` and columns `px + s·t`, of
/// which `dst` receives `i ∈ window[0]`, `t ∈ window[1]` (a `[rows][cols]`
/// plane per phase, every element written). Tap `(ky, kx)` of output
/// `(oy, ox)` is then `phase[ky % s][kx % s][oy + ky/s][ox + kx/s]` —
/// unit stride along `ox` for every stride, and `0.0` wherever the tap
/// falls in the padding.
fn stage(plane: &[f32], geom: &ConvGeom, window: &[Range<usize>; 2], dst: &mut [f32]) {
    let [_, _, h, w] = geom.input;
    let sx = geom.phases()[1];
    let (s, pad) = (geom.stride, geom.padding);
    let [rows, cols] = window;
    for (phase, out) in dst.chunks_exact_mut(rows.len() * cols.len()).enumerate() {
        let (py, px) = (phase / sx, phase % sx);
        // Window columns `t` whose padded column `px + s·t` is an input
        // column, i.e. lies in `pad..pad + w`.
        let t_lo = pad
            .saturating_sub(px)
            .div_ceil(s)
            .clamp(cols.start, cols.end);
        let t_hi = (w + pad)
            .saturating_sub(px)
            .div_ceil(s)
            .clamp(t_lo, cols.end);
        let (lo, hi) = (t_lo - cols.start, t_hi - cols.start);
        for (i, row) in rows.clone().zip(out.chunks_exact_mut(cols.len())) {
            let r = py + s * i;
            if r < pad || r - pad >= h || lo == hi {
                row.fill(0.0);
                continue;
            }
            row[..lo].fill(0.0);
            row[hi..].fill(0.0);
            let src = &plane[(r - pad) * w + px + s * t_lo - pad..];
            let valid = &mut row[lo..hi];
            if s == 1 {
                valid.copy_from_slice(&src[..valid.len()]);
            } else {
                let src = &src[..(valid.len() - 1) * s + 1];
                for (t, d) in valid.iter_mut().enumerate() {
                    *d = src[t * s];
                }
            }
        }
    }
}

/// Computes a conv2d: depthwise convs on the direct loop
/// ([`conv_depthwise`]), every other shape as a GEMM on the microkernel
/// ([`conv_panel`]).
pub(crate) fn conv2d_blocked(x: &[f32], wt: &[f32], geom: &ConvGeom, out: &mut [f32]) {
    let [_, cg, kh, kw] = geom.weight;
    if cg * kh * kw == 0 {
        // No taps: every output is the empty sum.
        out.fill(0.0);
        return;
    }
    if geom.is_depthwise() {
        conv_depthwise(x, wt, geom, out);
    } else {
        conv_panel(x, wt, geom, out);
    }
}

/// The direct depthwise loop (one input and one output channel per
/// group). Per channel the whole input plane is staged ([`stage`]), then
/// the output is computed over the *wide* plane `[OH][PW]` flattened,
/// `PW = OW + (KW−1)/s` — so each tap is one multiply-add over a long
/// unit-stride span of its phase, run in [`DW_BLOCK`]-wide register blocks
/// ([`depthwise_block`]) — and the first `OW` columns of every wide row
/// are the output plane. The other `PW − OW` columns (and the span's
/// round-up to whole blocks) read neighbouring staged values and are
/// discarded.
fn conv_depthwise(x: &[f32], wt: &[f32], geom: &ConvGeom, out: &mut [f32]) {
    let [_, _, h, w] = geom.input;
    let [_, _, kh, kw] = geom.weight;
    let [oh, ow] = geom.out;
    let [hy, hx] = geom.halo();
    let (ph, pw) = (oh + hy, ow + hx);
    let window = [0..ph, 0..pw];
    let span = (oh * pw).next_multiple_of(DW_BLOCK);
    let chan = geom.staged_len(&window);
    // Slack past the staged plane: the last block of a tap reads at most
    // `span` elements beyond the tap's offset, which is `< chan`.
    let mut staged = vec![0.0f32; chan + span];
    let mut wide = vec![0.0f32; span];
    let offsets = geom.tap_offsets([ph, pw]);
    let mut taps = Vec::with_capacity(offsets.len());
    for (q, oplane) in out.chunks_exact_mut(oh * ow).enumerate() {
        stage(&x[q * h * w..][..h * w], geom, &window, &mut staged[..chan]);
        // The channel's nonzero weights with their tap offsets, `(ky, kx)`
        // ascending: a weight of exactly `0.0` is skipped, as the
        // microkernel skips a zero left operand.
        let weights = &wt[q % geom.groups * kh * kw..][..kh * kw];
        taps.clear();
        let nonzero = offsets.iter().zip(weights).filter(|&(_, &wv)| wv != 0.0);
        taps.extend(nonzero.map(|(&off, &wv)| (off, wv)));
        for (j0, block) in (0..span)
            .step_by(DW_BLOCK)
            .zip(wide.chunks_exact_mut(DW_BLOCK))
        {
            depthwise_block(&taps, &staged[j0..], block);
        }
        for (orow, wrow) in oplane.chunks_exact_mut(ow).zip(wide.chunks_exact(pw)) {
            orow.copy_from_slice(&wrow[..ow]);
        }
    }
}

/// One register block of the direct depthwise loop: `dst[t]` accumulates
/// `wv · staged[off + t]` over `taps` in order, from `0.0`, the whole
/// [`DW_BLOCK`]-wide accumulator in registers.
///
/// Never inlined, for the reason [`mm_block`] is not.
#[inline(never)]
fn depthwise_block(taps: &[(usize, f32)], staged: &[f32], dst: &mut [f32]) {
    let mut acc = [0.0f32; DW_BLOCK];
    for &(off, wv) in taps {
        let src = &staged[off..off + DW_BLOCK];
        for t in 0..DW_BLOCK {
            acc[t] += wv * src[t];
        }
    }
    dst.copy_from_slice(&acc);
}

/// Every conv but a depthwise one, on the microkernel. Per (image, group)
/// this is the GEMM `W[O/g][K] · P[K][OH·OW]`, `K = C/g·KH·KW`: the
/// weight's OIHW rows are the left operand as stored, `P` is the column
/// panel of input taps in `(ci, ky, kx)` row order, and output channels
/// run through [`mm_group_blocked`] in [`MR`]-high groups. A pointwise
/// conv (1×1, stride 1, no padding) borrows the input planes as `P`;
/// every other shape fills `P` ([`fill_panel`]) into one scratch per
/// call, a block of at most [`CONV_PANEL_ELEMS`] elements (whole `NB`
/// columns) at a time, reused across blocks, groups and images.
fn conv_panel(x: &[f32], wt: &[f32], geom: &ConvGeom, out: &mut [f32]) {
    let [n, c, h, w] = geom.input;
    let [o, cg, kh, kw] = geom.weight;
    let ohw = geom.out[0] * geom.out[1];
    let (k, ocg) = (cg * kh * kw, o / geom.groups);
    let pointwise = kh == 1 && kw == 1 && geom.stride == 1 && geom.padding == 0;
    let nc = if pointwise {
        ohw
    } else {
        ((CONV_PANEL_ELEMS / k).max(NB) / NB * NB).min(ohw)
    };
    let blocks = || (0..ohw).step_by(nc).map(move |j0| j0..ohw.min(j0 + nc));
    let (mut scratch, mut staged) = if pointwise {
        (Vec::new(), Vec::new())
    } else {
        // A panel block, and one channel's window sized for the largest.
        let window = blocks().map(|b| geom.staged_len(&geom.window(b))).max();
        (vec![0.0f32; k * nc], vec![0.0f32; window.unwrap_or(0)])
    };
    for ni in 0..n {
        for g in 0..geom.groups {
            let xg = &x[(ni * c + g * cg) * h * w..][..cg * h * w];
            let wg = &wt[g * ocg * k..][..ocg * k];
            let og = &mut out[(ni * o + g * ocg) * ohw..][..ocg * ohw];
            for cols in blocks() {
                let (j0, nb) = (cols.start, cols.len());
                let panel = if pointwise {
                    xg
                } else {
                    fill_panel(xg, geom, cols, &mut staged, &mut scratch[..k * nb]);
                    &scratch[..k * nb]
                };
                for r0 in (0..ocg).step_by(MR) {
                    let rows = MR.min(ocg - r0);
                    let orows = &mut og[r0 * ohw + j0..];
                    mm_group_blocked(&wg[r0 * k..], k, rows, k, panel, nb, orows, ohw);
                }
            }
        }
    }
}

/// Fills the column panel of output columns `cols` (`panel` is
/// `[K][cols.len()]`) from the input planes `xg` of one group. Per input
/// channel `ci` the window those columns read is staged ([`stage`], into
/// `staged`, where it stays cache-resident), then row `(ci, ky, kx)` is
/// tap `(ky, kx)` at every output position `j = oy·OW + ox` of the block —
/// copied out of the staged phase with one contiguous copy per output row
/// the block covers, padding included.
fn fill_panel(
    xg: &[f32],
    geom: &ConvGeom,
    cols: Range<usize>,
    staged: &mut [f32],
    panel: &mut [f32],
) {
    let [_, _, h, w] = geom.input;
    let ow = geom.out[1];
    let nb = cols.len();
    let window = geom.window(cols.clone());
    let cw = window[1].len();
    let offsets = geom.tap_offsets([window[0].len(), cw]);
    let staged = &mut staged[..geom.staged_len(&window)];
    // The block's first output position, relative to the window.
    let (oy0, ox0) = (
        cols.start / ow - window[0].start,
        cols.start % ow - window[1].start,
    );
    for (ci, rows) in panel.chunks_exact_mut(offsets.len() * nb).enumerate() {
        stage(&xg[ci * h * w..][..h * w], geom, &window, staged);
        for (&off, row) in offsets.iter().zip(rows.chunks_exact_mut(nb)) {
            let tap = &staged[off..];
            let (mut oy, mut ox, mut d) = (oy0, ox0, 0);
            while d < nb {
                // Without halo columns (`KW ≤ s`) a window's rows are back
                // to back, and the whole block is one run.
                let len = if cw == ow { nb } else { (ow - ox).min(nb - d) };
                copy_run(&mut row[d..d + len], &tap[oy * cw + ox..][..len]);
                (d, oy, ox) = (d + len, oy + 1, 0);
            }
        }
    }
}

/// `dst.copy_from_slice(src)` as 16- and 8-element register moves inlined
/// into the caller: the panel fill copies one short run (an output row's
/// share of a block, 8–32 elements on the model shapes) per row and tap,
/// where a `memcpy` call per run made the fill 18–44 % slower.
#[inline(always)]
fn copy_run(dst: &mut [f32], src: &[f32]) {
    let mut d16 = dst.chunks_exact_mut(16);
    let mut s16 = src.chunks_exact(16);
    for (d, s) in (&mut d16).zip(&mut s16) {
        let s: &[f32; 16] = s.try_into().expect("16-element chunk");
        let d: &mut [f32; 16] = d.try_into().expect("16-element chunk");
        *d = *s;
    }
    let (dst, src) = (d16.into_remainder(), s16.remainder());
    let mut d8 = dst.chunks_exact_mut(8);
    let mut s8 = src.chunks_exact(8);
    for (d, s) in (&mut d8).zip(&mut s8) {
        let s: &[f32; 8] = s.try_into().expect("8-element chunk");
        let d: &mut [f32; 8] = d.try_into().expect("8-element chunk");
        *d = *s;
    }
    for (d, s) in d8.into_remainder().iter_mut().zip(s8.remainder()) {
        *d = *s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bits, MatMulSpec};

    /// The historical scalar kernel, kept verbatim as the bit-identity
    /// reference: ascending-`p` accumulation into a zero-filled output
    /// with the `av == 0.0` skip.
    fn naive_matmul(a: &Tensor, b: &Tensor, spec: MatMulSpec) -> Vec<f32> {
        let ra = a.rank();
        let (am, ak) = (a.shape()[ra - 2], a.shape()[ra - 1]);
        let (bk, bn) = (b.shape()[ra - 2], b.shape()[ra - 1]);
        let (m, k) = if spec.trans_a { (ak, am) } else { (am, ak) };
        let n = if spec.trans_b { bk } else { bn };
        let batch: usize = a.shape()[..ra - 2].iter().product();
        let mut out = vec![0f32; batch * m * n];
        let (av_, bv_) = (a.as_slice(), b.as_slice());
        for bi in 0..batch {
            let ab = &av_[bi * am * ak..(bi + 1) * am * ak];
            let bb = &bv_[bi * bk * bn..(bi + 1) * bk * bn];
            let ob = &mut out[bi * m * n..(bi + 1) * m * n];
            for i in 0..m {
                for p in 0..k {
                    let av = if spec.trans_a {
                        ab[p * ak + i]
                    } else {
                        ab[i * ak + p]
                    };
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        let bv = if spec.trans_b {
                            bb[j * bn + p]
                        } else {
                            bb[p * bn + j]
                        };
                        ob[i * n + j] += av * bv;
                    }
                }
            }
        }
        out
    }

    /// The historical scalar conv kernel, kept verbatim as the
    /// bit-identity reference: per output element one accumulator from
    /// `0.0` over `(ci, ky, kx)` ascending, padded taps skipped.
    fn naive_conv2d(
        x: &Tensor,
        weight: &Tensor,
        stride: usize,
        padding: usize,
        groups: usize,
    ) -> Vec<f32> {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let (o, cg, kh, kw) = (
            weight.shape()[0],
            weight.shape()[1],
            weight.shape()[2],
            weight.shape()[3],
        );
        let oh = (h + 2 * padding - kh) / stride + 1;
        let ow = (w + 2 * padding - kw) / stride + 1;
        let mut out = vec![0f32; n * o * oh * ow];
        let x = x.as_slice();
        let wt = weight.as_slice();
        let oc_per_g = o / groups;
        for ni in 0..n {
            for oc in 0..o {
                let g = oc / oc_per_g;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0f32;
                        for ci in 0..cg {
                            let ic = g * cg + ci;
                            for ky in 0..kh {
                                let iy = oy * stride + ky;
                                if iy < padding || iy - padding >= h {
                                    continue;
                                }
                                let iy = iy - padding;
                                for kx in 0..kw {
                                    let ix = ox * stride + kx;
                                    if ix < padding || ix - padding >= w {
                                        continue;
                                    }
                                    let ix = ix - padding;
                                    acc += x[((ni * c + ic) * h + iy) * w + ix]
                                        * wt[((oc * cg + ci) * kh + ky) * kw + kx];
                                }
                            }
                        }
                        out[((ni * o + oc) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    /// Output widths (matmul `n`, conv plane `OH·OW`) that compose every
    /// tail of the column sweep: below, at and between the 8-, 16- and
    /// `NB`-wide blocks.
    const TAIL_WIDTHS: [usize; 12] = [1, 7, 8, 9, 15, 16, 17, 24, 31, 40, 48, 56];

    #[test]
    fn blocked_matmul_is_bit_identical_to_the_scalar_reference() {
        // Shapes straddling the NB block width and the MR row group
        // (remainder columns, remainder rows, short contractions,
        // batches) across every transpose combination.
        let cases: Vec<(Vec<usize>, Vec<usize>, MatMulSpec)> = vec![
            (vec![5, 7], vec![7, 33], MatMulSpec::new()),
            (vec![9, 64], vec![64, 64], MatMulSpec::new()),
            (vec![MR - 1, 6], vec![6, 32], MatMulSpec::new()),
            (vec![MR, 6], vec![6, 32], MatMulSpec::new()),
            (vec![MR + 1, 6], vec![6, 33], MatMulSpec::new()),
            (vec![2 * MR + 3, 9], vec![9, NB + 3], MatMulSpec::new()),
            (vec![3, 4, 6], vec![3, 6, 31], MatMulSpec::new()),
            (
                vec![7, 5],
                vec![7, 33],
                MatMulSpec {
                    trans_a: true,
                    trans_b: false,
                },
            ),
            (
                vec![5, 7],
                vec![40, 7],
                MatMulSpec {
                    trans_a: false,
                    trans_b: true,
                },
            ),
            (
                vec![2, 6, 5],
                vec![2, 35, 6],
                MatMulSpec {
                    trans_a: true,
                    trans_b: true,
                },
            ),
        ];
        for (a_shape, b_shape, spec) in cases {
            let a = Tensor::random(a_shape.clone(), 1);
            let b = Tensor::random(b_shape.clone(), 2);
            let reference = naive_matmul(&a, &b, spec);
            let got = a.matmul(&b, spec).unwrap();
            assert_eq!(
                got.as_slice(),
                &reference[..],
                "blocked matmul diverged for {a_shape:?} x {b_shape:?} {spec:?}"
            );
        }
        // Every column-tail composition (NB, 16, 8 and variable blocks)
        // under full, partial and straddling row groups, dense and with
        // exact zeros on the left (the zero-skip inside each block width).
        for n in TAIL_WIDTHS {
            for m in [1, MR - 1, MR, MR + 1] {
                let dense = Tensor::random(vec![m, 11], 3);
                let sparse = Tensor::from_fn(vec![m, 11], |i| {
                    let v = dense.as_slice()[i];
                    if i % 3 == 0 {
                        0.0
                    } else {
                        v
                    }
                });
                let b = Tensor::random(vec![11, n], 4);
                for a in [dense, sparse] {
                    let got = a.matmul(&b, MatMulSpec::new()).unwrap();
                    let want = naive_matmul(&a, &b, MatMulSpec::new());
                    assert!(
                        bits(got.as_slice()) == bits(&want),
                        "blocked matmul diverged for m {m} n {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn any_row_partition_is_bit_identical() {
        // Row-range partitions at sizes straddling the MR group — {1,
        // MR-1, MR, MR+1} plus a whole-batch split — must reproduce the
        // unpartitioned bytes exactly: tile boundaries only change where
        // the single-row fallback runs, never any element's op order.
        let (b_m, b_k, b_n) = (2usize * MR + 3, 9, NB + 3);
        for (trans_a, trans_b) in [(false, false), (true, false), (false, true), (true, true)] {
            let spec = MatMulSpec { trans_a, trans_b };
            let a_shape = if trans_a {
                vec![2, b_k, b_m]
            } else {
                vec![2, b_m, b_k]
            };
            let b_shape = if trans_b {
                vec![2, b_n, b_k]
            } else {
                vec![2, b_k, b_n]
            };
            let a = Tensor::random(a_shape, 11);
            let b = Tensor::random(b_shape, 12);
            let reference = a.matmul(&b, spec).unwrap();
            assert_eq!(reference.as_slice(), &naive_matmul(&a, &b, spec)[..]);
            let packed = PackedB::pack(&b, trans_b).unwrap();
            let rows_total = 2 * b_m;
            for tile in [1usize, MR - 1, MR, MR + 1, b_m] {
                let mut out = vec![f32::NAN; rows_total * b_n];
                let mut start = 0;
                while start < rows_total {
                    let end = (start + tile).min(rows_total);
                    matmul_rows_blocked(
                        a.as_slice(),
                        b.as_slice(),
                        &packed,
                        trans_a,
                        a.shape()[1],
                        a.shape()[2],
                        b_m,
                        start..end,
                        &mut out[start * b_n..end * b_n],
                    );
                    start = end;
                }
                assert_eq!(
                    &out[..],
                    reference.as_slice(),
                    "partition tile={tile} ta={trans_a} tb={trans_b} diverged"
                );
            }
        }
    }

    #[test]
    fn zero_skip_survives_blocking() {
        // A sparse left operand exercises the skip on both the blocked
        // and remainder paths.
        let a = Tensor::from_fn(vec![4, 8], |i| if i % 3 == 0 { 0.0 } else { i as f32 });
        let b = Tensor::random(vec![8, 37], 3);
        let spec = MatMulSpec::new();
        assert_eq!(
            a.matmul(&b, spec).unwrap().as_slice(),
            &naive_matmul(&a, &b, spec)[..]
        );
    }

    #[test]
    fn pack_is_zero_copy_only_without_transpose() {
        let b = Tensor::random(vec![6, 9], 4);
        let plain = PackedB::pack(&b, false).unwrap();
        assert!(!plain.is_owned());
        assert_eq!((plain.k(), plain.n(), plain.batch()), (6, 9, 1));
        let trans = PackedB::pack(&b, true).unwrap();
        assert!(trans.is_owned());
        assert_eq!((trans.k(), trans.n(), trans.batch()), (9, 6, 1));
        // packed[p][j] == B[j][p]
        for p in 0..9 {
            for j in 0..6 {
                assert_eq!(trans.panel(b.as_slice(), 0)[p * 6 + j], b.at(&[j, p]));
            }
        }
        assert!(PackedB::pack(&Tensor::scalar(1.0), false).is_err());
    }

    /// The geometry `Tensor::conv2d` hands the kernels for these operands.
    fn geom_of(x: &Tensor, wt: &Tensor, stride: usize, padding: usize, groups: usize) -> ConvGeom {
        let (input, weight) = (x.shape(), wt.shape());
        let out = |i: usize| (input[i + 2] + 2 * padding - weight[i + 2]) / stride + 1;
        ConvGeom {
            input: [input[0], input[1], input[2], input[3]],
            weight: [weight[0], weight[1], weight[2], weight[3]],
            out: [out(0), out(1)],
            stride,
            padding,
            groups,
        }
    }

    /// Asserts `conv2d` equals [`naive_conv2d`] bit for bit.
    fn assert_conv_bits(x: &Tensor, wt: &Tensor, stride: usize, padding: usize, groups: usize) {
        let got = x.conv2d(wt, stride, padding, groups).unwrap();
        let want = naive_conv2d(x, wt, stride, padding, groups);
        assert!(
            bits(got.as_slice()) == bits(&want),
            "conv2d diverged: x {:?} w {:?} stride {stride} padding {padding} groups {groups}",
            x.shape(),
            wt.shape()
        );
    }

    /// Dense random operands, and zero-heavy ones — a ReLU'd activation
    /// and a weight with every third element exactly `0.0` — that drive
    /// the microkernel's zero-skip and the `w · 0.0` padded taps.
    fn conv_operands(x_shape: Vec<usize>, w_shape: Vec<usize>) -> [(Tensor, Tensor); 2] {
        let x = Tensor::random(x_shape, 21);
        let wt = Tensor::random(w_shape, 22);
        let relu = x.unary(crate::UnaryOp::Relu);
        let sparse = Tensor::from_fn(wt.shape().to_vec(), |i| {
            if i % 3 == 0 {
                0.0
            } else {
                wt.as_slice()[i]
            }
        });
        [(x, wt), (relu, sparse)]
    }

    #[test]
    fn blocked_conv_is_bit_identical_to_the_scalar_reference() {
        // Output planes straddling NB: 16, 31 (prime width), 32, 33, 256.
        let planes = [(4, 4), (1, 31), (4, 8), (3, 11), (16, 16)];
        let mut cases = 0;
        for kernel in [1usize, 2, 3, 7] {
            for stride in [1usize, 2, 4] {
                for padding in [0usize, 1, 3] {
                    for (pi, &(oh, ow)) in planes.iter().enumerate() {
                        // The smallest input giving this output plane.
                        let side =
                            |out: usize| ((out - 1) * stride + kernel).saturating_sub(2 * padding);
                        let (h, w) = (side(oh), side(ow));
                        if h == 0 || w == 0 {
                            continue;
                        }
                        // (C, groups, O/g): dense, two groups, depthwise.
                        let ocg = [1, MR - 1, MR, MR + 1, 19][(pi + kernel + stride) % 5];
                        for (c, groups) in [(3usize, 1usize), (4, 2), (5, 5)] {
                            let x_shape = vec![2, c, h, w];
                            let w_shape = vec![ocg * groups, c / groups, kernel, kernel];
                            for (x, wt) in conv_operands(x_shape, w_shape) {
                                assert_conv_bits(&x, &wt, stride, padding, groups);
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(cases > 800, "sweep shrank to {cases} cases");
        // Every column-tail composition as an output plane `1 × ow`,
        // under full, partial and straddling channel groups: pointwise
        // (the plane is the borrowed panel) and 3-wide (a filled one).
        for ow in TAIL_WIDTHS {
            for ocg in [1, MR - 1, MR, MR + 1] {
                for (kw, padding) in [(1usize, 0usize), (3, 1)] {
                    let x_shape = vec![1, 4, 1, ow];
                    let w_shape = vec![ocg * 2, 2, 1 + 2 * padding, kw];
                    for (x, wt) in conv_operands(x_shape.clone(), w_shape.clone()) {
                        assert_conv_bits(&x, &wt, 1, padding, 2);
                    }
                }
            }
        }
        // The direct depthwise loop over every stride, padding and
        // kernel, at output widths composing every tail of its register
        // blocks and wide rows, batch 2; and a depth multiplier (one input
        // channel, several output channels per group), which stays on the
        // panel.
        let mut depthwise = 0;
        for kernel in [1usize, 3, 5, 7] {
            for stride in [1usize, 2, 4] {
                for padding in [0usize, 1, 3] {
                    for (i, ow) in TAIL_WIDTHS.into_iter().enumerate() {
                        let oh = [1, 2, 5][i % 3];
                        let side =
                            |out: usize| ((out - 1) * stride + kernel).saturating_sub(2 * padding);
                        let (h, w) = (side(oh).max(1), side(ow).max(1));
                        for multiplier in [1usize, 3] {
                            let x_shape = vec![2, 3, h, w];
                            let w_shape = vec![3 * multiplier, 1, kernel, kernel];
                            for (x, wt) in conv_operands(x_shape, w_shape) {
                                let geom = geom_of(&x, &wt, stride, padding, 3);
                                assert_eq!(geom.is_depthwise(), multiplier == 1);
                                assert_conv_bits(&x, &wt, stride, padding, 3);
                                depthwise += usize::from(multiplier == 1);
                            }
                        }
                    }
                }
            }
        }
        assert!(
            depthwise >= 4 * 3 * 3 * 12 * 2,
            "{depthwise} depthwise cases"
        );
    }

    #[test]
    fn blocked_conv_is_bit_identical_across_column_blocks() {
        // K = 16·9 = 144 cuts the 1024-column plane into blocks of
        // CONV_PANEL_ELEMS / 144 rounded down to NB columns, the last one
        // short; K = 3·49 = 147 on 33×33 leaves a block that is not a
        // whole number of NB columns or of output rows. Output rows wider
        // than a block (400 and 200 columns) stage windows that start and
        // end inside a row, at stride 1 and 2. Input planes without rows
        // or columns stage nothing but padding.
        let block = CONV_PANEL_ELEMS / 144 / NB * NB;
        assert!(block < 1024 && 1024 % block != 0);
        for (x_shape, w_shape, stride, padding, groups) in [
            (vec![2, 16, 32, 32], vec![32, 16, 3, 3], 1, 1, 1),
            (vec![1, 3, 33, 33], vec![MR + 1, 3, 7, 7], 1, 3, 1),
            (vec![1, 16, 3, 400], vec![MR + 1, 16, 3, 3], 1, 1, 1),
            (vec![1, 16, 5, 400], vec![MR + 1, 16, 3, 3], 2, 1, 1),
            (vec![2, 2, 0, 3], vec![3, 2, 1, 1], 1, 1, 1),
            (vec![1, 2, 2, 0], vec![4, 1, 1, 2], 1, 1, 2),
            (vec![1, 2, 0, 0], vec![2, 1, 1, 1], 1, 1, 2),
            (vec![1, 32, 40, 40], vec![32, 1, 3, 3], 1, 1, 32),
            (vec![2, 8, 48, 48], vec![2 * 19, 4, 1, 1], 1, 0, 2),
        ] {
            for (x, wt) in conv_operands(x_shape, w_shape) {
                assert_conv_bits(&x, &wt, stride, padding, groups);
            }
        }
    }

    #[test]
    fn segformer_conv_shapes_are_bit_identical() {
        // The seven convs of the 64×64 Segformer behind `exec_compute`:
        // patch embeds, the spatial-reduction conv, two Mix-FFN
        // depthwise convs, the decoder's fuse and classifier.
        for (x_shape, w_shape, stride, padding, groups) in [
            (vec![1, 3, 64, 64], vec![16, 3, 7, 7], 4, 3, 1),
            (vec![1, 16, 16, 16], vec![16, 16, 2, 2], 2, 0, 1),
            (vec![1, 64, 16, 16], vec![64, 1, 3, 3], 1, 1, 64),
            (vec![1, 16, 16, 16], vec![32, 16, 3, 3], 2, 1, 1),
            (vec![1, 128, 8, 8], vec![128, 1, 3, 3], 1, 1, 128),
            (vec![1, 64, 16, 16], vec![32, 64, 1, 1], 1, 0, 1),
            (vec![1, 32, 16, 16], vec![19, 32, 1, 1], 1, 0, 1),
        ] {
            for (x, wt) in conv_operands(x_shape, w_shape) {
                assert_conv_bits(&x, &wt, stride, padding, groups);
            }
        }
    }

    #[test]
    fn conv_non_finite_contract() {
        // Every case runs on the column panel (one input channel, two
        // output channels) and on the depthwise loop (two channels, two
        // groups), at stride 1 and 2: one contract on every path.
        for stride in [1usize, 2] {
            for (c, groups) in [(1usize, 1usize), (2, 2)] {
                // A weight of exactly 0.0 skips its term, as matmul's left
                // operand always has: 0.0 · ∞ contributes nothing (the
                // scalar loop: NaN). One output per stride step.
                let plane = [f32::INFINITY, 1.0].repeat(stride);
                let x = Tensor::from_vec(vec![1, c, 1, 2 * stride], plane.repeat(c)).unwrap();
                let wt = Tensor::from_vec(vec![2, 1, 1, 2], [0.0, 2.0].repeat(2)).unwrap();
                assert_eq!(
                    geom_of(&x, &wt, stride, 0, groups).is_depthwise(),
                    groups == 2
                );
                let got = x.conv2d(&wt, stride, 0, groups).unwrap();
                assert_eq!(got.shape(), &[1, 2, 1, stride]);
                assert!(got.as_slice().iter().all(|&v| v == 2.0), "{got:?}");
                assert!(naive_conv2d(&x, &wt, stride, 0, groups)
                    .iter()
                    .all(|v| v.is_nan()));
                // A padded tap contributes w · 0.0 instead of being skipped:
                // an infinite weight over padding is NaN (the scalar loop:
                // finite). Tap kx = 0 is in the padding at every output.
                let x = Tensor::from_vec(vec![1, c, 3, 1], [3.0, 1.0, 2.0].repeat(c)).unwrap();
                let wt = Tensor::from_vec(vec![2, 1, 1, 3], [f32::INFINITY, 1.0, 1.0].repeat(2))
                    .unwrap();
                let got = x.conv2d(&wt, stride, 1, groups).unwrap();
                assert!(got.as_slice().iter().all(|v| v.is_nan()), "{got:?}");
                let naive = naive_conv2d(&x, &wt, stride, 1, groups);
                assert!(naive.iter().all(|v| v.is_finite()), "{naive:?}");
            }
        }
    }
}
