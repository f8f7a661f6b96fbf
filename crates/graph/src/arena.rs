//! Liveness analysis and arena layout.
//!
//! Every traced buffer lives strictly inside one layer iteration (the
//! hidden states that cross layers are external), so liveness is a
//! simple first-appearance → last-appearance interval scan over the
//! canonical layer schedule. Buffers with disjoint intervals share
//! arena space through a first-fit free list with coalescing; the
//! high-water mark is the arena size for the whole forward.

use crate::ir::Op;

/// A resolved arena interval for one virtual buffer, in f32 elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) off: usize,
    pub(crate) len: usize,
}

/// The planned memory layout of one layer schedule.
pub(crate) struct Layout {
    /// Interval per canonical virtual buffer id.
    pub(crate) spans: Vec<Span>,
    /// Arena high-water mark (f32 elements) — what the executor
    /// actually allocates, once, for the whole forward.
    pub(crate) arena_len: usize,
    /// What the same schedule would need with one private buffer per
    /// intermediate — the sum of per-op buffers without liveness
    /// sharing — for reporting.
    pub(crate) scratch_len: usize,
}

/// Align buffer starts to 16 floats (64 bytes) so arena views start on
/// cache-line boundaries like freshly allocated `Vec`s do.
const ALIGN: usize = 16;

fn align_up(n: usize) -> usize {
    n.div_ceil(ALIGN) * ALIGN
}

struct FreeList {
    /// Disjoint free intervals `(off, len)`, sorted by offset.
    free: Vec<(usize, usize)>,
    watermark: usize,
}

impl FreeList {
    fn alloc(&mut self, len: usize) -> usize {
        let len = align_up(len);
        // First fit.
        for i in 0..self.free.len() {
            let (off, flen) = self.free[i];
            if flen >= len {
                if flen == len {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + len, flen - len);
                }
                return off;
            }
        }
        // No block fits. If the top free block abuts the watermark,
        // grow it instead of leaving a hole.
        if let Some(&(off, flen)) = self.free.last() {
            if off + flen == self.watermark {
                self.free.pop();
                self.watermark = off + len;
                return off;
            }
        }
        let off = self.watermark;
        self.watermark += len;
        off
    }

    fn release(&mut self, off: usize, len: usize) {
        let len = align_up(len);
        let idx = self
            .free
            .iter()
            .position(|&(o, _)| o > off)
            .unwrap_or(self.free.len());
        self.free.insert(idx, (off, len));
        // Coalesce with the right neighbour, then the left.
        if idx + 1 < self.free.len() && self.free[idx].0 + self.free[idx].1 == self.free[idx + 1].0
        {
            self.free[idx].1 += self.free[idx + 1].1;
            self.free.remove(idx + 1);
        }
        if idx > 0 && self.free[idx - 1].0 + self.free[idx - 1].1 == self.free[idx].0 {
            self.free[idx - 1].1 += self.free[idx].1;
            self.free.remove(idx);
        }
    }
}

/// Lay out the canonical layer schedule's buffers in a shared arena.
/// `sizes[i]` is the element count of canonical buffer `i`.
pub(crate) fn allocate(ops: &[Op], sizes: &[usize]) -> Layout {
    let n = sizes.len();
    let mut first = vec![usize::MAX; n];
    let mut last = vec![0usize; n];
    for (i, op) in ops.iter().enumerate() {
        for b in op.bufs() {
            if first[b.0] == usize::MAX {
                first[b.0] = i;
            }
            last[b.0] = i;
        }
    }

    let mut fl = FreeList {
        free: Vec::new(),
        watermark: 0,
    };
    let mut spans = vec![
        Span {
            off: usize::MAX,
            len: 0
        };
        n
    ];
    for i in 0..ops.len() {
        for b in (0..n).filter(|&b| first[b] == i) {
            spans[b] = Span {
                off: fl.alloc(sizes[b]),
                len: sizes[b],
            };
        }
        for b in (0..n).filter(|&b| first[b] != usize::MAX && last[b] == i) {
            fl.release(spans[b].off, spans[b].len);
        }
    }

    debug_assert!(
        spans
            .iter()
            .zip(sizes)
            .all(|(s, &sz)| sz == 0 || s.off != usize::MAX),
        "every sized buffer must be placed"
    );
    Layout {
        spans,
        arena_len: fl.watermark,
        scratch_len: sizes.iter().sum(),
    }
}
