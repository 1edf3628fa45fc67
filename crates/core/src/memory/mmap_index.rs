//! Binary, mmap-readable snapshots of trained memory estimators — the
//! only on-disk form of an estimator-cache entry (see [`super::cache`]).
//!
//! Readers (many concurrent configurator workers, the `pipette serve`
//! daemon) load an estimator with no text parsing at all: the file is
//! mapped (or read) once, the header is validated, and every weight is
//! copied straight out of the little-endian payload at a known offset.
//! Numbers survive bit-exactly by construction — `f64::to_le_bytes`
//! round-trips — so a snapshot-loaded estimator predicts byte-identically
//! to the freshly trained one (test-covered in `tests/estimator_cache.rs`).
//!
//! ## Layout (all little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"PIPMEMIX"
//!      8     4  format version (currently 1)
//!     12     4  reserved (zero)
//!     16     8  training-input fingerprint (must match the cache key)
//!     24     8  payload length in bytes
//!     32     8  FNV-1a checksum of the payload
//!     40     …  payload
//! ```
//!
//! Payload, a flat run of 8-byte little-endian words (`u64` or `f64`):
//! `y_mean, y_std, soft_margin`, `seq_len, vocab`, the train summary
//! (`samples, iterations, record_every, final_loss, curve_len, curve…`),
//! the scaler (`num_features, means…, stds…`), then the network
//! (`num_layers`, and per layer `rows, cols, relu, weights…, bias…`).
//!
//! ## Corruption policy
//!
//! `write_index` writes a uniquely named temp file
//! (`<entry>.idx.tmp-<pid>-<n>`) in the target directory and renames it
//! into place, so a crash never leaves a torn entry under the final name;
//! it can leave the temp file, which the cache's startup sweep deletes
//! once [`abandoned_temp`] finds its writer gone. `read_index` returns
//! `Missing` when there is no file and `Defective` — never a partial
//! value — on *any* defect: unreadable or short file, bad magic, version
//! or fingerprint mismatch, checksum mismatch, truncated payload, or
//! counts that do not fit the remaining bytes. The cache quarantines a
//! defective file and retrains, so a damaged entry costs one training
//! run, not a wrong answer.

// The crate denies unsafe_code; this module is the single opt-out — two
// audited unsafe blocks (the mmap syscall and the slice view over the
// mapping) live in `mmap_sys` below, each with a SAFETY comment.
#![allow(unsafe_code)]

use crate::fnv::fnv1a64;
use crate::memory::estimator::MemoryEstimator;
use pipette_mlp::{Dense, Matrix, Mlp, StandardScaler};
use std::io::Read as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::memory::estimator::TrainSummary;

const MAGIC: [u8; 8] = *b"PIPMEMIX";
const VERSION: u32 = 1;
pub(crate) const HEADER_LEN: usize = 40;

/// Read-only view of a file: memory-mapped on unix, buffered elsewhere
/// (and whenever mapping fails — empty files, exotic filesystems).
enum FileBytes {
    #[cfg(unix)]
    Mapped(mmap_sys::MappedFile),
    Owned(Vec<u8>),
}

impl FileBytes {
    fn open(path: &Path) -> std::io::Result<Self> {
        let mut file = std::fs::File::open(path)?;
        #[cfg(unix)]
        {
            if let Some(mapped) = mmap_sys::MappedFile::map(&file) {
                return Ok(FileBytes::Mapped(mapped));
            }
        }
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        Ok(FileBytes::Owned(bytes))
    }

    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            FileBytes::Mapped(m) => m.bytes(),
            FileBytes::Owned(v) => v,
        }
    }
}

/// `mmap(2)` via direct `extern "C"` bindings: the toolchain vendors no
/// `libc`/`memmap2` crate, but std already links the platform libc, so
/// the two symbols we need are available to declare by hand.
#[cfg(unix)]
mod mmap_sys {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    /// A whole file mapped read-only private; unmapped on drop.
    pub(super) struct MappedFile {
        ptr: *const u8,
        len: usize,
    }

    // The mapping is read-only and owned: sharing a `&MappedFile` across
    // threads only ever reads immutable pages.
    unsafe impl Send for MappedFile {}
    unsafe impl Sync for MappedFile {}

    impl MappedFile {
        /// Maps `file` read-only, or `None` when anything fails (zero
        /// length — `mmap` rejects empty ranges — or platform refusal);
        /// the caller then falls back to a buffered read.
        pub(super) fn map(file: &File) -> Option<Self> {
            let len = usize::try_from(file.metadata().ok()?.len()).ok()?;
            if len == 0 {
                return None;
            }
            // SAFETY: fd is a valid open file for the duration of the
            // call; we request a fresh read-only private mapping (addr
            // null, offset 0) of exactly the file's length and check for
            // MAP_FAILED before use. The fd may close after mmap returns;
            // the mapping survives it (POSIX).
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 || ptr.is_null() {
                return None;
            }
            Some(Self {
                ptr: ptr as *const u8,
                len,
            })
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live read-only mapping owned by
            // self; it is unmapped only in Drop, after every borrow ends.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for MappedFile {
        fn drop(&mut self) {
            // SAFETY: exactly the range mmap returned; called once.
            unsafe {
                munmap(self.ptr as *mut core::ffi::c_void, self.len);
            }
        }
    }
}

/// Bounds-checked little-endian reader over the payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let chunk = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(chunk)
    }

    fn u64(&mut self) -> Option<u64> {
        let chunk = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(chunk);
        Some(u64::from_le_bytes(buf))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Reads `n` f64s. The length is validated against the remaining
    /// bytes *before* allocating, so a corrupt count cannot trigger a
    /// huge allocation.
    fn f64s(&mut self, n: usize) -> Option<Vec<f64>> {
        let byte_len = n.checked_mul(8)?;
        if self.bytes.len().saturating_sub(self.pos) < byte_len {
            return None;
        }
        let chunk = self.take(byte_len)?;
        Some(
            chunk
                .chunks_exact(8)
                .map(|c| {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(c);
                    f64::from_bits(u64::from_le_bytes(buf))
                })
                .collect(),
        )
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Little-endian writer building the payload.
#[derive(Default)]
struct Builder {
    bytes: Vec<u8>,
}

impl Builder {
    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64s(&mut self, vs: &[f64]) {
        for &v in vs {
            self.f64(v);
        }
    }
}

/// Serializes `estimator` into the fixed payload layout.
fn encode_payload(estimator: &MemoryEstimator) -> Vec<u8> {
    let (mlp, scaler, (y_mean, y_std, soft_margin), (seq_len, vocab), summary) =
        estimator.index_parts();
    let mut b = Builder::default();
    b.f64(y_mean);
    b.f64(y_std);
    b.f64(soft_margin);
    b.u64(seq_len as u64);
    b.u64(vocab as u64);
    b.u64(summary.samples as u64);
    b.u64(summary.iterations as u64);
    b.u64(summary.record_every as u64);
    b.f64(summary.final_loss);
    b.u64(summary.loss_curve.len() as u64);
    b.f64s(&summary.loss_curve);
    b.u64(scaler.num_features() as u64);
    b.f64s(scaler.means());
    b.f64s(scaler.stds());
    b.u64(mlp.layers().len() as u64);
    for layer in mlp.layers() {
        b.u64(layer.weights.rows() as u64);
        b.u64(layer.weights.cols() as u64);
        b.u64(u64::from(layer.relu));
        b.f64s(layer.weights.as_slice());
        b.f64s(&layer.bias);
    }
    b.bytes
}

/// Parses a payload back into an estimator; `None` on any truncation or
/// inconsistency.
fn decode_payload(payload: &[u8]) -> Option<MemoryEstimator> {
    let mut c = Cursor::new(payload);
    let y_mean = c.f64()?;
    let y_std = c.f64()?;
    let soft_margin = c.f64()?;
    let seq_len = c.usize()?;
    let vocab = c.usize()?;
    let samples = c.usize()?;
    let iterations = c.usize()?;
    let record_every = c.usize()?;
    let final_loss = c.f64()?;
    let curve_len = c.usize()?;
    let loss_curve = c.f64s(curve_len)?;
    let num_features = c.usize()?;
    let means = c.f64s(num_features)?;
    let stds = c.f64s(num_features)?;
    let num_layers = c.usize()?;
    if num_layers == 0 {
        return None;
    }
    let mut layers = Vec::new();
    for _ in 0..num_layers {
        let rows = c.usize()?;
        let cols = c.usize()?;
        let relu = match c.u64()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        if rows == 0 || cols == 0 {
            return None;
        }
        let n = rows.checked_mul(cols)?;
        let weights = c.f64s(n)?;
        let bias = c.f64s(cols)?;
        layers.push(Dense::from_parts(
            Matrix::from_vec(rows, cols, weights),
            bias,
            relu,
        ));
    }
    // The network's shape contracts hold in release builds too: a stack
    // that does not map the ten memory features through chained widths
    // to one output is a defective entry, not a panic at the first
    // prediction.
    let chained = layers.windows(2).all(|w| w[0].out_dim() == w[1].in_dim());
    let ends = (layers[0].in_dim(), layers[layers.len() - 1].out_dim());
    if !c.finished() || !chained || num_features != 10 || ends != (10, 1) {
        return None;
    }
    Some(MemoryEstimator::from_index_parts(
        Mlp::from_layers(layers),
        StandardScaler::from_parts(means, stds),
        (y_mean, y_std, soft_margin),
        (seq_len, vocab),
        TrainSummary {
            samples,
            iterations,
            record_every,
            final_loss,
            loss_curve,
        },
    ))
}

/// Writes the binary snapshot of `estimator` for cache key `fingerprint`
/// to `path`, atomically: the bytes go to a temp file beside `path`
/// (named by process id and a per-process counter, so concurrent writers
/// never share one) that is then renamed over it. There is no fsync: a
/// file torn by power loss fails the checksum and is retrained. An error
/// only costs a retrain in a later process, never correctness.
pub(crate) fn write_index(
    path: &Path,
    fingerprint: u64,
    estimator: &MemoryEstimator,
) -> std::io::Result<()> {
    let payload = encode_payload(estimator);
    let mut file = Vec::with_capacity(HEADER_LEN + payload.len());
    file.extend_from_slice(&MAGIC);
    file.extend_from_slice(&VERSION.to_le_bytes());
    file.extend_from_slice(&0u32.to_le_bytes());
    file.extend_from_slice(&fingerprint.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    file.extend_from_slice(&payload);
    static WRITES: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "idx{TEMP_MARK}{}-{}",
        std::process::id(),
        WRITES.fetch_add(1, Ordering::Relaxed)
    ));
    let written = std::fs::write(&tmp, file).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Between an entry's `.idx` and the `<pid>-<n>` tag of its temp file.
const TEMP_MARK: &str = ".tmp-";

/// Whether `name` is a [`write_index`] temp file whose writer has exited,
/// so no rename will ever claim it. Liveness comes from `/proc`; where
/// there is none, every temp file is kept, since its writer may still be
/// running.
pub(crate) fn abandoned_temp(name: &str) -> bool {
    let Some(pid) = name
        .split_once(&format!(".idx{TEMP_MARK}"))
        .and_then(|(_, tag)| tag.split_once('-'))
        .and_then(|(pid, _)| pid.parse::<u32>().ok())
    else {
        return false;
    };
    let procfs = Path::new("/proc");
    procfs.join("self").exists() && !procfs.join(pid.to_string()).exists()
}

/// Why [`read_index`] returned no estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IndexError {
    /// No file at the path: a plain miss.
    Missing,
    /// A file that could not be read or failed a check: a corrupt entry.
    Defective,
}

/// Loads the snapshot at `path` if — and only if — it is intact and was
/// written for `fingerprint`. A file that is not there is
/// [`IndexError::Missing`]; one that cannot be read or has any defect is
/// [`IndexError::Defective`] (see the module docs' corruption policy).
/// Both come from the one open, so no second filesystem call can race a
/// concurrent writer's rename.
pub(crate) fn read_index(path: &Path, fingerprint: u64) -> Result<MemoryEstimator, IndexError> {
    let file = FileBytes::open(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => IndexError::Missing,
        _ => IndexError::Defective,
    })?;
    decode_file(file.bytes(), fingerprint).ok_or(IndexError::Defective)
}

/// Checks the header of a whole snapshot file and decodes its payload.
fn decode_file(bytes: &[u8], fingerprint: u64) -> Option<MemoryEstimator> {
    if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
        return None;
    }
    let mut header = Cursor::new(&bytes[8..HEADER_LEN]);
    let version = header.u64()? as u32; // version u32 + reserved u32 read together
    if version != VERSION {
        return None;
    }
    if header.u64()? != fingerprint {
        return None;
    }
    let payload_len = header.usize()?;
    let checksum = header.u64()?;
    let payload = bytes.get(HEADER_LEN..)?;
    if payload.len() != payload_len || fnv1a64(payload) != checksum {
        return None;
    }
    decode_payload(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::dataset::{collect_samples, SampleSpec};
    use crate::memory::estimator::MemoryEstimatorConfig;
    use pipette_mlp::TrainConfig;
    use pipette_model::GptConfig;
    use pipette_sim::MemorySim;

    fn tiny_estimator() -> MemoryEstimator {
        tiny_estimator_with_features().0
    }

    fn tiny_estimator_with_features() -> (MemoryEstimator, [f64; 10]) {
        let gpt = GptConfig::new(8, 1024, 16, 2048, 51200);
        let spec = SampleSpec {
            gpu_counts: vec![8],
            gpus_per_node: 8,
            models: vec![gpt],
            global_batches: vec![32],
            max_micro: 2,
        };
        let config = MemoryEstimatorConfig {
            train: TrainConfig {
                iterations: 120,
                learning_rate: 3e-3,
                batch_size: 32,
                record_every: 40,
                seed: 0,
            },
            hidden: 12,
            depth: 2,
            soft_margin: 0.08,
            seed: 1,
        };
        let samples = collect_samples(&spec, &MemorySim::new(1));
        let features = samples[0].features;
        (MemoryEstimator::train(&samples, &config), features)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pipette-mmap-index-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_is_exactly_equal() {
        let (estimator, features) = tiny_estimator_with_features();
        let path = temp_path("round-trip.idx");
        write_index(&path, 0xdead_beef, &estimator).unwrap();
        let loaded = read_index(&path, 0xdead_beef).expect("intact snapshot loads");
        assert_eq!(loaded, estimator);
        // Byte-identical predictions, not merely close ones.
        assert_eq!(
            loaded.predict_bytes(&features),
            estimator.predict_bytes(&features)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let estimator = tiny_estimator();
        let path = temp_path("fingerprint.idx");
        write_index(&path, 1, &estimator).unwrap();
        assert!(read_index(&path, 2) == Err(IndexError::Defective));
        assert!(read_index(&path, 1).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let estimator = tiny_estimator();
        let path = temp_path("truncate.idx");
        write_index(&path, 7, &estimator).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Every strictly shorter prefix must fail cleanly — header cuts,
        // payload cuts, and the empty file alike.
        for keep in [0, 1, 8, 16, HEADER_LEN - 1, HEADER_LEN, full.len() - 1] {
            std::fs::write(&path, &full[..keep]).unwrap();
            assert!(
                read_index(&path, 7) == Err(IndexError::Defective),
                "prefix of {keep} accepted"
            );
        }
        std::fs::write(&path, &full).unwrap();
        assert!(read_index(&path, 7).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let estimator = tiny_estimator();
        let path = temp_path("bitflip.idx");
        write_index(&path, 9, &estimator).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_index(&path, 9) == Err(IndexError::Defective));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let estimator = tiny_estimator();
        let path = temp_path("trailing.idx");
        write_index(&path, 3, &estimator).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            read_index(&path, 3) == Err(IndexError::Defective),
            "length check must catch"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// With release-mode shape checks in `pipette-mlp`, a payload whose
    /// network cannot take the ten memory features to one output must be
    /// rejected at decode time, not panic at the first prediction.
    #[test]
    fn shape_broken_networks_are_rejected() {
        let estimator = tiny_estimator();
        let summary = estimator.train_summary().clone();
        let dense = |i, o| Dense::from_parts(Matrix::zeros(i, o), vec![0.0; o], true);
        let decode_net = |layers: Vec<Dense>, features: usize| {
            let net = MemoryEstimator::from_index_parts(
                Mlp::from_layers(layers),
                StandardScaler::from_parts(vec![0.0; features], vec![1.0; features]),
                (0.0, 1.0, 0.08),
                (2048, 51200),
                summary.clone(),
            );
            decode_payload(&encode_payload(&net))
        };
        assert!(decode_net(vec![dense(10, 4), dense(4, 1)], 10).is_some());
        assert!(decode_net(vec![dense(10, 4), dense(5, 1)], 10).is_none());
        assert!(decode_net(vec![dense(3, 4), dense(4, 1)], 3).is_none());
        assert!(decode_net(vec![dense(10, 4), dense(4, 2)], 10).is_none());

        // A zero-sized layer cannot be built, so patch the first layer's
        // row count (the word after the header fields, the loss curve,
        // the scaler and the layer count) to zero.
        let mut payload = encode_payload(&estimator);
        let at = 8 * (10 + summary.loss_curve.len() + 1 + 2 * 10 + 1);
        assert_eq!(payload[at..at + 8], 10u64.to_le_bytes());
        payload[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(decode_payload(&payload).is_none());
    }

    #[test]
    fn missing_file_is_a_clean_none() {
        assert!(read_index(Path::new("/nonexistent/p.idx"), 0) == Err(IndexError::Missing));
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let estimator = tiny_estimator();
        let path = temp_path("magic.idx");
        write_index(&path, 5, &estimator).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let good = bytes.clone();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_index(&path, 5) == Err(IndexError::Defective));
        bytes = good;
        bytes[8] = 99; // version
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_index(&path, 5) == Err(IndexError::Defective));
        let _ = std::fs::remove_file(&path);
    }
}
