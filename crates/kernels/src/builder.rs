//! Assembly source builder with the shared kernel idioms.
//!
//! Kernels are generated as assembler text so that structuring-element
//! lengths, buffer placement and sample counts are baked in as constants —
//! the same specialization a C compiler with constant propagation would
//! perform for the platform. The builder also implements Listing 1 of the
//! paper: when *instrumented*, every data-dependent conditional is wrapped
//! in a `SINC`/`SDEC` pair with its own synchronization-array index.
//!
//! ### Register conventions inside generated kernels
//!
//! * `r1` — element index of the active loop;
//! * `r7`, `r6`, `r2` — buffer base pointers of the active pass
//!   (the leaf kernels use no stack and make no calls, so `r6`/`r7` are
//!   free);
//! * `r0`, `r3`–`r5` — scratch.

use crate::layout::{self, BufferLayout};
use std::fmt::Write as _;

/// Where synchronization points are inserted (ablation A5 of
/// `ulp_bench::ablation`).
///
/// The paper instruments "each data-dependent conditional statement"
/// (Listing 1) but reports a DM-access increase below 10 %, which implies
/// the instrumented conditionals are the *outer* per-sample statements,
/// not every inner compare: a check-in/check-out pair per window element
/// would multiply DM traffic. Both placements are supported:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncGranularity {
    /// One section per output sample: the whole data-dependent window
    /// update (or digit loop) is bracketed once. Divergence inside a
    /// sample is bounded and repaired at the sample barrier. This matches
    /// the paper's reported sync overhead and is the default.
    #[default]
    PerSample,
    /// One section per data-dependent `if`: the finest possible placement,
    /// maximal lockstep at maximal sync traffic.
    PerElement,
}

/// Code-generation options common to all kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelOptions {
    /// Insert `SINC`/`SDEC` synchronization points (the improved design's
    /// binary); without, the source contains no synchronization ISE at all
    /// (the baseline design's binary).
    pub instrumented: bool,
    /// Synchronization-point placement.
    pub granularity: SyncGranularity,
    /// Buffer-to-bank placement.
    pub layout: BufferLayout,
}

impl KernelOptions {
    /// The canonical options of one of the paper's two designs.
    pub fn for_design(with_sync: bool) -> KernelOptions {
        KernelOptions {
            instrumented: with_sync,
            ..KernelOptions::default()
        }
    }
}

/// Incremental builder of one kernel's assembler source.
#[derive(Debug, Clone)]
pub struct AsmBuilder {
    text: String,
    labels: usize,
    sync_points: u8,
    options: KernelOptions,
}

impl AsmBuilder {
    /// Starts a kernel with the given options.
    pub fn new(options: KernelOptions) -> AsmBuilder {
        AsmBuilder {
            text: String::new(),
            labels: 0,
            sync_points: 0,
            options,
        }
    }

    /// The active options.
    pub fn options(&self) -> &KernelOptions {
        &self.options
    }

    /// Number of synchronization points allocated so far.
    pub fn sync_points(&self) -> u8 {
        self.sync_points
    }

    /// Appends one line of assembly.
    pub fn line(&mut self, s: &str) {
        writeln!(self.text, "        {s}").expect("string write");
    }

    /// Appends a label definition.
    pub fn label(&mut self, name: &str) {
        writeln!(self.text, "{name}:").expect("string write");
    }

    /// Appends a comment line.
    pub fn comment(&mut self, s: &str) {
        writeln!(self.text, "; {s}").expect("string write");
    }

    /// Returns a fresh unique label with the given prefix.
    pub fn fresh(&mut self, prefix: &str) -> String {
        self.labels += 1;
        format!("{prefix}_{}", self.labels)
    }

    /// Allocates the next synchronization-point index.
    fn alloc_sync(&mut self) -> u8 {
        let idx = self.sync_points;
        self.sync_points = self
            .sync_points
            .checked_add(1)
            .expect("more than 256 sync points");
        idx
    }

    /// Opens a data-dependent section (emits `SINC #idx` when
    /// instrumented) and returns the index to close it with.
    pub fn section_enter(&mut self) -> u8 {
        let idx = self.alloc_sync();
        if self.options.instrumented {
            self.line(&format!("sinc #{idx}"));
        }
        idx
    }

    /// Closes a data-dependent section (emits `SDEC #idx`).
    pub fn section_leave(&mut self, idx: u8) {
        if self.options.instrumented {
            self.line(&format!("sdec #{idx}"));
        }
    }

    /// The finished source text.
    pub fn into_source(self) -> String {
        self.text
    }

    // ---- kernel idioms ---------------------------------------------------

    /// Standard prologue: set `RSYNC` to the sync array. Leaf kernels use
    /// no stack, so no stack pointer is established.
    pub fn prologue(&mut self) {
        self.comment("prologue: RSYNC");
        self.line(&format!("li   r0, {}", layout::SYNC_BASE));
        self.line("wrsync r0");
    }

    /// Epilogue: halt.
    pub fn epilogue(&mut self) {
        self.line("halt");
    }

    /// Emits code leaving the base address of this core's buffer `buf` in
    /// register `dst`, clobbering `tmp` (`dst != tmp`, neither `r1`).
    pub fn load_buffer_base(&mut self, dst: &str, tmp: &str, buf: usize) {
        debug_assert!(dst != tmp);
        debug_assert!(buf < layout::NUM_BUFFERS);
        let slot = buf * layout::MAX_N;
        match self.options.layout {
            BufferLayout::Packed => {
                self.line(&format!("rdid {dst}"));
                if buf > 0 {
                    self.line(&format!("addi {dst}, #{buf}"));
                }
                self.line(&format!("movi {tmp}, #7"));
                self.line(&format!("and  {dst}, {tmp}"));
                self.line(&format!("shl  {dst}, #11"));
                if slot > 0 {
                    self.line(&format!("li   {tmp}, {slot}"));
                    self.line(&format!("add  {dst}, {tmp}"));
                }
            }
            BufferLayout::PrivateBank => {
                self.line(&format!("rdid {dst}"));
                self.line(&format!("shl  {dst}, #11"));
                if slot > 0 {
                    self.line(&format!("li   {tmp}, {slot}"));
                    self.line(&format!("add  {dst}, {tmp}"));
                }
            }
        }
    }

    /// Emits code leaving the address of this core's scalar spill area in
    /// `dst`, clobbering `tmp`.
    pub fn load_vars_base(&mut self, dst: &str, tmp: &str) {
        self.line(&format!("rdid {dst}"));
        self.line(&format!("shl  {dst}, #11"));
        self.line(&format!("li   {tmp}, {}", layout::VARS));
        self.line(&format!("add  {dst}, {tmp}"));
    }

    /// Emits a running-min (`max = false`) or running-max (`max = true`)
    /// window scan: `dst[i] = min/max(src[i-h ..= i+h])` for `i in 0..n`,
    /// with the window clipped at the borders — the morphological
    /// erosion/dilation primitive. `src`/`dst` are buffer indices.
    ///
    /// The per-element compare-and-update (the branchy embedded-C idiom)
    /// is a data-dependent conditional, bracketed per sample or per
    /// element as the [`SyncGranularity`] asks.
    pub fn window_scan(&mut self, src: usize, dst: usize, half: u16, n: u16, max: bool) {
        assert!(half >= 1, "window half-width must be at least 1");
        assert!(n as usize <= layout::MAX_N, "n exceeds buffer capacity");
        let outer = self.fresh("wl");
        let lo_ok = self.fresh("wlo");
        let hi_ok = self.fresh("whi");
        let inner = self.fresh("wi");
        let no_upd = self.fresh("wnu");
        let idone = self.fresh("wid");
        let op = if max { "dilation" } else { "erosion" };
        let per_sample = self.options.granularity == SyncGranularity::PerSample;
        self.comment(&format!("{op}: buf{src} -> buf{dst}, half={half}, n={n}"));
        self.load_buffer_base("r7", "r0", src);
        self.load_buffer_base("r6", "r0", dst);

        self.line("clr  r1");
        self.label(&outer);
        let sample_sp = per_sample.then(|| self.section_enter());
        // lo = max(i - h, 0)
        self.line("mov  r3, r1");
        self.line(&format!("li   r0, {half}"));
        self.line("sub  r3, r0");
        self.line(&format!("bge  {lo_ok}"));
        self.line("clr  r3");
        self.label(&lo_ok);
        // hi = min(i + h, n - 1)
        self.line("mov  r5, r1");
        self.line("add  r5, r0");
        self.line(&format!("li   r0, {}", n - 1));
        self.line("cmp  r5, r0");
        self.line(&format!("ble  {hi_ok}"));
        self.line("mov  r5, r0");
        self.label(&hi_ok);
        // r3 = &src[lo], r5 = &src[hi]
        self.line("add  r3, r7");
        self.line("add  r5, r7");
        self.line("ldp  r4, [r3]");
        self.label(&inner);
        self.line("cmp  r3, r5");
        self.line(&format!("bgt  {idone}"));
        self.line("ldp  r0, [r3]");
        // Data-dependent min/max update (Listing 1 of the paper).
        let element_sp = (!per_sample).then(|| self.section_enter());
        self.line("cmp  r0, r4");
        self.line(&format!("{}  {no_upd}", if max { "ble" } else { "bge" }));
        self.line("mov  r4, r0");
        self.label(&no_upd);
        if let Some(sp) = element_sp {
            self.section_leave(sp);
        }
        self.line(&format!("br   {inner}"));
        self.label(&idone);
        // dst[i] = acc
        self.line("mov  r0, r6");
        self.line("add  r0, r1");
        self.line("st   r4, [r0]");
        if let Some(sp) = sample_sp {
            self.section_leave(sp);
        }
        self.line("inc  r1");
        self.line(&format!("li   r0, {n}"));
        self.line("cmp  r1, r0");
        self.line(&format!("blt  {outer}"));
    }

    /// Emits an **amortized** running-min/max window scan: instead of
    /// rescanning the whole window per output sample, it keeps the current
    /// extremum and handles the three cases of a sliding window:
    ///
    /// * the window grew (left border): merge the incoming sample;
    /// * the outgoing sample was *not* the extremum: merge the incoming
    ///   sample (two comparisons, the common fast path);
    /// * the outgoing sample *was* the extremum: rescan the window.
    ///
    /// This is the classic fast implementation of morphological
    /// erosion/dilation — amortized O(1) comparisons per sample with a
    /// data-dependent O(window) rescan path. The enormous path-length
    /// difference between fast path and rescan is what makes this kernel
    /// the most divergent of the benchmarks: without synchronization the
    /// cores fragment completely, and with it they sleep at the per-sample
    /// barrier until the rescanning cores catch up.
    pub fn window_scan_amortized(&mut self, src: usize, dst: usize, half: u16, n: u16, max: bool) {
        assert!(half >= 1, "window half-width must be at least 1");
        assert!(n as usize <= layout::MAX_N, "n exceeds buffer capacity");
        let outer = self.fresh("al");
        let hi_ok = self.fresh("ahi");
        let merge_in = self.fresh("amg");
        let rescan = self.fresh("ars");
        let lo_ok = self.fresh("alo");
        let rescan_loop = self.fresh("ail");
        let no_upd = self.fresh("anu");
        let store = self.fresh("ast");
        let op = if max { "dilation" } else { "erosion" };
        let keep = if max { "ble" } else { "bge" };
        self.comment(&format!(
            "{op} (amortized): buf{src} -> buf{dst}, half={half}, n={n}"
        ));
        self.load_buffer_base("r7", "r0", src);
        self.load_buffer_base("r6", "r0", dst);

        self.line("clr  r1");
        self.label(&outer);
        // The whole per-sample update is data-dependent (three-way path).
        let sp = self.section_enter();
        // hi = min(i + h, n - 1) -> r5.
        self.line("mov  r5, r1");
        self.line(&format!("li   r0, {half}"));
        self.line("add  r5, r0");
        self.line(&format!("li   r0, {}", n - 1));
        self.line("cmp  r5, r0");
        self.line(&format!("ble  {hi_ok}"));
        self.line("mov  r5, r0");
        self.label(&hi_ok);
        // First sample: establish the extremum with a full scan.
        self.line("cmpi r1, #0");
        self.line(&format!("beq  {rescan}"));
        // Outgoing index i - h - 1; negative while the window still grows.
        self.line("mov  r3, r1");
        self.line(&format!("li   r0, {}", half + 1));
        self.line("sub  r3, r0");
        self.line(&format!("blt  {merge_in}"));
        // Did the extremum just leave the window?
        self.line("add  r3, r7");
        self.line("ld   r0, [r3]");
        self.line("cmp  r0, r4");
        self.line(&format!("beq  {rescan}"));
        self.label(&merge_in);
        // Fast path: merge the incoming sample x[hi].
        self.line("mov  r3, r5");
        self.line("add  r3, r7");
        self.line("ld   r0, [r3]");
        self.line("cmp  r0, r4");
        self.line(&format!("{keep}  {store}"));
        self.line("mov  r4, r0");
        self.line(&format!("br   {store}"));
        self.label(&rescan);
        // Slow path: full rescan of [max(i-h,0) ..= hi].
        self.line("mov  r3, r1");
        self.line(&format!("li   r0, {half}"));
        self.line("sub  r3, r0");
        self.line(&format!("bge  {lo_ok}"));
        self.line("clr  r3");
        self.label(&lo_ok);
        self.line("add  r3, r7");
        self.line("mov  r2, r5");
        self.line("add  r2, r7");
        self.line("ldp  r4, [r3]");
        self.label(&rescan_loop);
        self.line("cmp  r3, r2");
        self.line(&format!("bgt  {store}"));
        self.line("ldp  r0, [r3]");
        self.line("cmp  r0, r4");
        self.line(&format!("{keep}  {no_upd}"));
        self.line("mov  r4, r0");
        self.label(&no_upd);
        self.line(&format!("br   {rescan_loop}"));
        self.label(&store);
        self.line("mov  r0, r6");
        self.line("add  r0, r1");
        self.line("st   r4, [r0]");
        self.section_leave(sp);
        self.line("inc  r1");
        self.line(&format!("li   r0, {n}"));
        self.line("cmp  r1, r0");
        self.line(&format!("blt  {outer}"));
    }

    /// Emits a branch-free element-wise loop over `i in 0..n` whose body is
    /// produced by `body` with: `r5` holding `src1[i]`, `r3` holding
    /// `src2[i]`; the body must leave the result in `r5` (scratch: `r0`,
    /// `r4`). The result is stored to `dst[i]`. All three are buffer
    /// indices.
    pub fn elementwise2(
        &mut self,
        src1: usize,
        src2: usize,
        dst: usize,
        n: u16,
        comment: &str,
        body: impl FnOnce(&mut AsmBuilder),
    ) {
        let looplab = self.fresh("el");
        self.comment(&format!(
            "elementwise ({comment}): buf{src1},buf{src2} -> buf{dst}, n={n}"
        ));
        self.load_buffer_base("r7", "r0", src1);
        self.load_buffer_base("r6", "r0", src2);
        self.load_buffer_base("r2", "r0", dst);
        self.line("clr  r1");
        self.label(&looplab);
        self.line("mov  r3, r7");
        self.line("add  r3, r1");
        self.line("ld   r5, [r3]");
        self.line("mov  r3, r6");
        self.line("add  r3, r1");
        self.line("ld   r3, [r3]");
        body(self);
        self.line("mov  r4, r2");
        self.line("add  r4, r1");
        self.line("st   r5, [r4]");
        self.line("inc  r1");
        self.line(&format!("li   r0, {n}"));
        self.line("cmp  r1, r0");
        self.line(&format!("blt  {looplab}"));
    }

    /// Stores the immediate `value` to element `index` of buffer `dst`
    /// (scratch: `r0`, `r3`).
    pub fn store_const(&mut self, dst: usize, index: u16, value: u16) {
        self.load_buffer_base("r0", "r3", dst);
        if index > 0 {
            self.line(&format!("li   r3, {index}"));
            self.line("add  r0, r3");
        }
        self.line(&format!("li   r3, {value}"));
        self.line("st   r3, [r0]");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulp_isa::asm::assemble;

    fn opts(instrumented: bool) -> KernelOptions {
        KernelOptions::for_design(instrumented)
    }

    #[test]
    fn fresh_labels_are_unique() {
        let mut b = AsmBuilder::new(opts(true));
        let a = b.fresh("x");
        let c = b.fresh("x");
        assert_ne!(a, c);
    }

    #[test]
    fn sections_allocate_indices_in_order() {
        let mut b = AsmBuilder::new(opts(true));
        assert_eq!(b.section_enter(), 0);
        b.section_leave(0);
        assert_eq!(b.section_enter(), 1);
        assert_eq!(b.sync_points(), 2);
    }

    #[test]
    fn uninstrumented_builder_emits_no_sync_ops() {
        let mut b = AsmBuilder::new(opts(false));
        b.prologue();
        b.window_scan(0, 1, 2, 16, false);
        b.epilogue();
        let src = b.into_source();
        assert!(!src.contains("sinc"));
        assert!(!src.contains("sdec"));
        assemble(&src).expect("valid assembly");
    }

    #[test]
    fn instrumented_scan_assembles_with_sync() {
        let mut b = AsmBuilder::new(opts(true));
        b.prologue();
        b.window_scan(0, 1, 2, 16, true);
        b.epilogue();
        let src = b.into_source();
        assert!(src.contains("sinc #0"));
        assert!(src.contains("sdec #0"));
        assemble(&src).expect("valid assembly");
    }

    #[test]
    fn elementwise_assembles() {
        let mut b = AsmBuilder::new(opts(true));
        b.prologue();
        b.elementwise2(0, 1, 2, 16, "sub", |b| b.line("sub  r5, r3"));
        b.epilogue();
        assemble(&b.into_source()).expect("valid assembly");
    }

    #[test]
    fn both_layouts_generate_valid_base_loads() {
        for layout in [BufferLayout::Packed, BufferLayout::PrivateBank] {
            let mut b = AsmBuilder::new(KernelOptions {
                instrumented: false,
                granularity: SyncGranularity::PerSample,
                layout,
            });
            b.load_buffer_base("r7", "r0", 3);
            b.line("halt");
            assemble(&b.into_source()).expect("valid assembly");
        }
    }
}
