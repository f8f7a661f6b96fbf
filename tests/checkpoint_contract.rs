//! The checkpoint contract, reachable from tier-1: a saved matcher loads
//! back scoring bit for bit like the one that was saved, the file format
//! is a fixed point of load → save, and damaged or foreign files are
//! refused with a typed `CheckpointError` — never a panic. The fuzzed
//! header suites live in `crates/checkpoint/tests`; these run the whole
//! em-serve loader (config, shapes, int8 repacking) on a tiny model.

use em_core::pipeline::train_tokenizer;
use em_serve::{freeze_parts, CheckpointError, FrozenMatcher, QuantMode};
use em_tokenizers::{AnyTokenizer, Encoding};
use em_transformers::{Architecture, ClassificationHead, TransformerConfig, TransformerModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

const VOCAB: usize = 50;
const MAX_LEN: usize = 24;

fn tiny_matcher() -> FrozenMatcher {
    let arch = Architecture::Bert;
    let cfg = TransformerConfig::tiny(arch, VOCAB);
    let hidden = cfg.hidden;
    let model = TransformerModel::new(cfg, 31);
    let mut rng = StdRng::seed_from_u64(31);
    let head = ClassificationHead::new(hidden, 0.1, 0.02, &mut rng);
    let tok = train_tokenizer(arch, &em_data::generate_corpus(30, 31), 200);
    freeze_parts(&model, &head, tok, MAX_LEN)
}

/// Ragged encodings, CLS first, no padding.
fn encodings(n: usize) -> Vec<Encoding> {
    let mut rng = StdRng::seed_from_u64(32);
    (0..n)
        .map(|_| {
            let real = rng.gen_range(3..=MAX_LEN);
            let split = rng.gen_range(1..real);
            Encoding {
                ids: (0..real).map(|_| rng.gen_range(1..VOCAB as u32)).collect(),
                segments: (0..real).map(|i| u8::from(i >= split)).collect(),
                mask: vec![1u8; real],
                cls_index: 0,
                pad_id: 0,
            }
        })
        .collect()
}

/// A scratch directory unique to this process and test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "em-checkpoint-contract-{}-{test}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn load(path: &Path, tok: &AnyTokenizer) -> Result<FrozenMatcher, CheckpointError> {
    FrozenMatcher::load_checkpoint(path, tok.clone())
}

#[test]
fn saved_matchers_load_back_bit_identical_and_resave_to_the_same_bytes() {
    let scratch = Scratch::new("roundtrip");
    let frozen = tiny_matcher();
    let encs = encodings(9);
    for mode in [QuantMode::Int8, QuantMode::F32] {
        let matcher = frozen.quantize(mode);
        let want = bits(&matcher.score_encodings(&encs));
        let first = scratch.file(&format!("{mode}-1.emck"));
        matcher.save_checkpoint(&first).expect("save");
        let loaded = load(&first, &matcher.tokenizer).expect("load");
        assert_eq!(loaded.quant(), mode);
        assert_eq!(loaded.weight_bytes(), matcher.weight_bytes(), "{mode}");
        assert_eq!(
            bits(&loaded.score_encodings(&encs)),
            want,
            "{mode}: a loaded matcher must score exactly like the saved one"
        );
        let second = scratch.file(&format!("{mode}-2.emck"));
        loaded.save_checkpoint(&second).expect("re-save");
        assert!(
            std::fs::read(&first).unwrap() == std::fs::read(&second).unwrap(),
            "{mode}: save → load → save must reproduce the file byte for byte"
        );
    }
}

#[test]
fn damaged_or_foreign_files_are_typed_errors_not_panics() {
    let scratch = Scratch::new("damage");
    let matcher = tiny_matcher().quantize(QuantMode::Int8);
    let good = scratch.file("good.emck");
    matcher.save_checkpoint(&good).expect("save");
    let bytes = std::fs::read(&good).unwrap();
    let header_len = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
    let tok = &matcher.tokenizer;
    let try_bytes = |name: &str, data: &[u8]| {
        let path = scratch.file(name);
        std::fs::write(&path, data).unwrap();
        load(&path, tok)
    };

    // Truncated anywhere: inside the length prefix, inside the header,
    // inside the payload, one byte short.
    for cut in [
        0,
        5,
        8 + header_len / 2,
        8 + header_len + 1,
        bytes.len() - 1,
    ] {
        match try_bytes("cut.emck", &bytes[..cut]) {
            Err(CheckpointError::Truncated { .. } | CheckpointError::BadHeader(_)) => {}
            other => panic!("truncated at {cut}: expected a typed truncation, got {other:?}"),
        }
    }

    // A flipped header byte: the JSON's opening brace is a malformed
    // header; every other flip of the length prefix and of a sample of
    // header bytes must load or fail typed — reaching the end of this
    // loop without a panic is the assertion.
    let mut flipped = bytes.clone();
    flipped[8] ^= 0xff;
    assert!(
        matches!(
            try_bytes("flip.emck", &flipped),
            Err(CheckpointError::BadHeader(_))
        ),
        "a mangled header must be a BadHeader"
    );
    for at in (0..8).chain((8..8 + header_len).step_by(13)) {
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x01;
        if let Ok(m) = try_bytes("flip.emck", &flipped) {
            // A flip that still parses (a digit of a metadata value, a
            // space of padding) must still yield a usable matcher.
            assert_eq!(m.quant(), QuantMode::Int8);
        }
    }

    // An int8 weight code outside ±63 — the range the integer GEMM's
    // fallback tile is exact for — is refused at load, not served.
    let header = std::str::from_utf8(&bytes[8..8 + header_len]).unwrap();
    let entry = &header[header.find(r#""layer0.fc1.w""#).expect("fc1 codes")..];
    let offsets = &entry[entry.find(r#""data_offsets":["#).unwrap() + 16..];
    let start: usize = offsets[..offsets.find(',').unwrap()].parse().unwrap();
    let mut wide = bytes.clone();
    wide[8 + header_len + start] = 100;
    assert!(
        matches!(
            try_bytes("wide.emck", &wide),
            Err(CheckpointError::BadTensor { .. })
        ),
        "an int8 code of 100 must be a BadTensor"
    );

    // A header from a future format.
    let needle = br#""format_version":"1""#;
    let at = bytes
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("the header names its format version");
    let mut foreign = bytes.clone();
    foreign[at + needle.len() - 2] = b'9';
    match try_bytes("foreign.emck", &foreign) {
        Err(CheckpointError::Metadata(msg)) => assert!(msg.contains("format_version"), "{msg}"),
        other => panic!("format_version 9: expected a Metadata error, got {other:?}"),
    }

    // Files from builds that still wrote half-float weights: an f32 file
    // patched in place (same-length replacements, so no offset moves) to
    // claim that quant mode, or that dtype for one weight tensor.
    let f32_file = scratch.file("f32.emck");
    tiny_matcher().save_checkpoint(&f32_file).expect("save f32");
    let f32_bytes = std::fs::read(&f32_file).unwrap();
    // The first `from` after the first `after`, replaced by `to`.
    let patch = |after: &[u8], from: &[u8], to: &[u8]| {
        let at = find(&f32_bytes, from, find(&f32_bytes, after, 0));
        let mut patched = f32_bytes.clone();
        patched[at..at + to.len()].copy_from_slice(to);
        patched
    };
    match try_bytes(
        "quant.emck",
        &patch(br#""quant""#, br#""quant":"f32""#, br#""quant":"f16""#),
    ) {
        Err(CheckpointError::Metadata(msg)) => assert!(msg.contains("unknown quant mode"), "{msg}"),
        other => panic!("an unknown quant mode: expected a Metadata error, got {other:?}"),
    }
    let dtype = patch(
        br#""layer0.fc1.w""#,
        br#""dtype":"F32""#,
        br#""dtype":"F16""#,
    );
    match try_bytes("dtype.emck", &dtype) {
        Err(CheckpointError::BadTensor { name, reason }) => {
            assert_eq!(name, "layer0.fc1.w");
            assert!(reason.contains("unknown dtype"), "{reason}");
        }
        other => panic!("an unknown dtype: expected a BadTensor error, got {other:?}"),
    }
}

/// Offset of the first `needle` in `haystack` at or after `from`.
fn find(haystack: &[u8], needle: &[u8], from: usize) -> usize {
    from + haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("needle present")
}
