//! Property tests for the checkpoint format.
//!
//! Two safety claims are fuzzed here: (1) a write → open roundtrip is
//! bit-exact for arbitrary tensor sets in both load modes, and (2) no
//! mutilation of the file — truncation at any length, arbitrary byte
//! flips — can make `Checkpoint::open` panic or hand out a view it did
//! not validate; every failure is a typed [`CheckpointError`].

use em_checkpoint::{Checkpoint, CheckpointWriter, Dtype, TensorBuf};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static SCRATCH_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch() -> PathBuf {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("em-ckpt-prop-{}-{n}.emck", std::process::id()))
}

#[derive(Debug, Clone)]
struct TensorSpec {
    dtype: Dtype,
    shape: Vec<usize>,
    seed: u32,
}

fn tensor_spec() -> impl Strategy<Value = TensorSpec> {
    (
        0usize..2,
        prop::collection::vec(0usize..9, 1..4),
        0u32..1_000_000,
    )
        .prop_map(|(d, shape, seed)| TensorSpec {
            dtype: [Dtype::F32, Dtype::I8][d],
            shape,
            seed,
        })
}

/// Deterministic pseudo-random payload from the spec's seed.
fn build(spec: &TensorSpec) -> TensorBuf {
    let n: usize = spec.shape.iter().product();
    let mut state = spec.seed.wrapping_mul(2654435761).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        state
    };
    match spec.dtype {
        Dtype::F32 => TensorBuf::from_f32(
            (0..n)
                .map(|_| next() as f32 / u32::MAX as f32 - 0.5)
                .collect(),
            spec.shape.clone(),
        ),
        Dtype::I8 => TensorBuf::from_i8(
            (0..n).map(|_| (next() & 0xff) as u8 as i8).collect(),
            spec.shape.clone(),
        ),
    }
}

fn write_specs(specs: &[TensorSpec], path: &std::path::Path) {
    let mut w = CheckpointWriter::new();
    w.metadata("suite", "proptest");
    for (i, spec) in specs.iter().enumerate() {
        w.tensor(&format!("t{i}"), build(spec));
    }
    w.write_to(path).expect("write succeeds");
}

proptest! {
    #[test]
    fn roundtrip_is_bit_exact(specs in prop::collection::vec(tensor_spec(), 1..6)) {
        let path = scratch();
        write_specs(&specs, &path);

        for no_mmap in [false, true] {
            if no_mmap {
                std::env::set_var("EM_CHECKPOINT_NO_MMAP", "1");
            }
            let ckpt = Checkpoint::open(&path);
            if no_mmap {
                std::env::remove_var("EM_CHECKPOINT_NO_MMAP");
            }
            let ckpt = ckpt.expect("valid checkpoint opens");
            prop_assert_eq!(ckpt.metadata("suite"), Some("proptest"));
            prop_assert_eq!(ckpt.names().count(), specs.len());
            for (i, spec) in specs.iter().enumerate() {
                let t = ckpt.tensor(&format!("t{i}")).expect("tensor present");
                let want = build(spec);
                prop_assert_eq!(t.dtype(), spec.dtype);
                prop_assert_eq!(t.shape(), &spec.shape[..]);
                // Bit-exact payload, regardless of dtype.
                prop_assert_eq!(t.bytes(), want.bytes());
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_never_panics(
        specs in prop::collection::vec(tensor_spec(), 1..4),
        frac in 0.0f64..1.0,
    ) {
        let path = scratch();
        write_specs(&specs, &path);
        let full = std::fs::read(&path).unwrap();
        let cut = (full.len() as f64 * frac) as usize;
        std::fs::write(&path, &full[..cut]).unwrap();

        // A typed error is acceptable; reaching past `open` at all means
        // no panic and no out-of-bounds access. A shorter-but-valid
        // prefix can only happen when the kept bytes still cover every
        // tensor; verify the views hold.
        if let Ok(ckpt) = Checkpoint::open(&path) {
            for name in ckpt.names().map(str::to_string).collect::<Vec<_>>() {
                let t = ckpt.tensor(&name).unwrap();
                prop_assert_eq!(t.bytes().len(), t.byte_len());
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn byte_flips_never_panic(
        specs in prop::collection::vec(tensor_spec(), 1..4),
        flips in prop::collection::vec((0usize..1_000_000, 0u32..256), 1..16),
    ) {
        let path = scratch();
        write_specs(&specs, &path);
        let mut bytes = std::fs::read(&path).unwrap();
        for (pos, val) in flips {
            let idx = pos % bytes.len();
            bytes[idx] = val as u8;
        }
        std::fs::write(&path, &bytes).unwrap();

        if let Ok(ckpt) = Checkpoint::open(&path) {
            // Header survived (or mutated into something still valid):
            // every advertised tensor must still be a safe, in-bounds view.
            for name in ckpt.names().map(str::to_string).collect::<Vec<_>>() {
                let t = ckpt.tensor(&name).unwrap();
                let _ = t.bytes();
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
