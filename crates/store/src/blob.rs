//! The node-local blob store: a directory of CRC-trailed blob files.
//!
//! Each blob is one file (PR-4-style framing, see `docs/STORE.md`):
//!
//! ```text
//! [8  magic "XSLPECB1"][u32 LE payload_len][payload][u32 LE CRC-32(payload)]
//! ```
//!
//! so bit-rot is *attributable per shard*: a read either returns exactly
//! the stored bytes or a typed [`BlobError::Corrupt`] naming what is
//! wrong (truncation, framing, checksum). Keys are arbitrary short UTF-8
//! strings, hex-encoded into file names so the key namespace cannot
//! escape the store directory. Writes go to a temp file and `rename`
//! into place, so a crashed node never leaves a half-written blob under
//! a live key.

use crate::proto::write_gathered;
use ec_wire::crc32;
use std::fs;
use std::io::{ErrorKind, IoSliceMut, Read};
use std::path::{Path, PathBuf};

/// Magic prefix of every blob file.
pub const BLOB_MAGIC: [u8; 8] = *b"XSLPECB1";

/// Fixed framing overhead: magic + length prefix + CRC trailer.
pub const BLOB_OVERHEAD: u64 = 16;

/// Magic + length prefix: what a blob file opens with.
const BLOB_HEAD: usize = 12;

/// File-name suffix of blob files (temp files use `.tmp` instead; scans
/// ignore them and [`BlobStore::open`] sweeps crash leftovers).
const BLOB_SUFFIX: &str = ".blob";

/// Why a stored blob could not be returned.
#[derive(Debug)]
pub enum BlobError {
    /// No blob under this key.
    NotFound,
    /// The file exists but its framing or checksum is wrong; the string
    /// names the specific damage.
    Corrupt(String),
    /// Underlying filesystem failure.
    Io(std::io::Error),
}

impl From<std::io::Error> for BlobError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            ErrorKind::NotFound => BlobError::NotFound,
            _ => BlobError::Io(e),
        }
    }
}

/// Result of [`BlobStore::stat`]: size and integrity without shipping
/// the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlobStat {
    /// Payload length recorded in the frame.
    pub len: u64,
    /// CRC-32 recorded in the trailer.
    pub crc: u32,
    /// Whether the payload re-hashes to the recorded CRC and the framing
    /// is intact.
    pub ok: bool,
}

/// A directory of CRC-framed blobs.
pub struct BlobStore {
    root: PathBuf,
}

impl BlobStore {
    /// Open (creating if needed) a blob directory. Temp files orphaned
    /// by a crash mid-`put` are swept here: no writer is live at open
    /// time, so any `.tmp` is garbage.
    pub fn open(root: &Path) -> std::io::Result<BlobStore> {
        fs::create_dir_all(root)?;
        for entry in fs::read_dir(root)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(BlobStore {
            root: root.to_path_buf(),
        })
    }

    /// The directory backing this store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.root
            .join(format!("{}{BLOB_SUFFIX}", hex_encode(key.as_bytes())))
    }

    /// Store `data` under `key`, replacing any existing blob atomically.
    pub fn put(&self, key: &str, data: &[u8]) -> Result<(), BlobError> {
        // The frame's length prefix is u32: a larger blob would be
        // written with a wrapped length and read back as Corrupt, so
        // refuse it at write time instead.
        if data.len() as u64 > u32::MAX as u64 {
            return Err(BlobError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("blob of {} bytes exceeds the 4 GiB frame cap", data.len()),
            )));
        }
        // Unique temp name per call: concurrent writers of one key must
        // not truncate each other's in-flight temp file (last rename
        // wins, but every rename installs a *complete* frame).
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let final_path = self.path_for(key);
        let tmp_path = self
            .root
            .join(format!("{}.{seq}.tmp", hex_encode(key.as_bytes())));
        {
            let mut f = fs::File::create(&tmp_path)?;
            let mut head = [0u8; BLOB_HEAD];
            head[..8].copy_from_slice(&BLOB_MAGIC);
            head[8..].copy_from_slice(&(data.len() as u32).to_le_bytes());
            let trailer = crc32(data).to_le_bytes();
            // The whole frame in one gathered write, then to disk.
            let write = write_gathered(&mut f, &[&head, data, &trailer], &mut 0)
                .and_then(|()| f.sync_data());
            if let Err(e) = write {
                drop(f);
                let _ = fs::remove_file(&tmp_path);
                return Err(e.into());
            }
        }
        fs::rename(&tmp_path, &final_path)?;
        Ok(())
    }

    /// Fetch the payload stored under `key`, verifying the frame.
    pub fn get(&self, key: &str) -> Result<Vec<u8>, BlobError> {
        self.read_verified(key).map(|(payload, _)| payload)
    }

    /// Read and verify the frame under `key`: the payload and the CRC-32
    /// it was just checked against.
    fn read_verified(&self, key: &str) -> Result<(Vec<u8>, u32), BlobError> {
        let path = self.path_for(key);
        let mut f = fs::File::open(&path)?;
        let file_len = f.metadata()?.len();
        if file_len < BLOB_OVERHEAD {
            return Err(BlobError::Corrupt(format!(
                "file is {file_len} bytes, below the {BLOB_OVERHEAD}-byte frame minimum"
            )));
        }
        if file_len > BLOB_OVERHEAD + u32::MAX as u64 {
            return Err(BlobError::Corrupt(format!(
                "file is {file_len} bytes, above what a frame can declare"
            )));
        }
        // The whole file in one scattered read: the head lands on the
        // stack, payload and trailer in the buffer that is returned.
        let mut head = [0u8; BLOB_HEAD];
        let mut payload = vec![0u8; file_len as usize - BLOB_HEAD];
        read_scattered(&mut f, &mut head, &mut payload)?;
        if head[..8] != BLOB_MAGIC {
            return Err(BlobError::Corrupt("bad blob magic".into()));
        }
        let payload_len = u32::from_le_bytes(head[8..].try_into().expect("fixed slice")) as u64;
        if file_len != BLOB_OVERHEAD + payload_len {
            return Err(BlobError::Corrupt(format!(
                "file is {file_len} bytes but the frame declares {} (truncated or grown)",
                BLOB_OVERHEAD + payload_len
            )));
        }
        let trailer = payload[payload_len as usize..]
            .try_into()
            .expect("file length checked");
        let stored = u32::from_le_bytes(trailer);
        payload.truncate(payload_len as usize);
        let actual = crc32(&payload);
        if stored != actual {
            return Err(BlobError::Corrupt(format!(
                "payload CRC {actual:#010x} does not match stored {stored:#010x}"
            )));
        }
        Ok((payload, actual))
    }

    /// Size and integrity of the blob under `key` (reads the payload to
    /// re-hash it, but never ships it anywhere).
    pub fn stat(&self, key: &str) -> Result<BlobStat, BlobError> {
        match self.read_verified(key) {
            Ok((payload, crc)) => Ok(BlobStat {
                len: payload.len() as u64,
                crc,
                ok: true,
            }),
            Err(BlobError::Corrupt(_)) => {
                // Report what the frame *claims* so the caller can still
                // see the blob exists; `ok: false` marks it damaged.
                let path = self.path_for(key);
                let file_len = fs::metadata(&path)?.len();
                Ok(BlobStat {
                    len: file_len.saturating_sub(BLOB_OVERHEAD),
                    crc: 0,
                    ok: false,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Remove the blob under `key`. Returns whether it existed.
    pub fn delete(&self, key: &str) -> Result<bool, BlobError> {
        match fs::remove_file(self.path_for(key)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// All keys starting with `prefix`, sorted. Stray files (temp files,
    /// foreign names) are ignored.
    pub fn list(&self, prefix: &str) -> std::io::Result<Vec<String>> {
        let mut keys = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(hex) = name.strip_suffix(BLOB_SUFFIX) else {
                continue;
            };
            let Some(bytes) = hex_decode(hex) else {
                continue;
            };
            let Ok(key) = String::from_utf8(bytes) else {
                continue;
            };
            if key.starts_with(prefix) {
                keys.push(key);
            }
        }
        keys.sort();
        Ok(keys)
    }

    /// All keys starting with `prefix` as `(key, age_secs, len)`
    /// triples, sorted by key — the listing the scrub-time GC drives
    /// on, where plain [`BlobStore::list`] lacks the age and size.
    ///
    /// `age_secs` comes from the blob file's mtime — measured on *this
    /// node's* clock, so the GC's grace window needs no cross-node clock
    /// agreement. `len` is the payload length the frame claims (file
    /// size minus framing), good enough for reclaim accounting even on
    /// a damaged blob.
    pub fn list_meta(&self, prefix: &str) -> std::io::Result<Vec<(String, u64, u64)>> {
        let now = std::time::SystemTime::now();
        let mut entries = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(hex) = name.strip_suffix(BLOB_SUFFIX) else {
                continue;
            };
            let Some(bytes) = hex_decode(hex) else {
                continue;
            };
            let Ok(key) = String::from_utf8(bytes) else {
                continue;
            };
            if !key.starts_with(prefix) {
                continue;
            }
            let meta = entry.metadata()?;
            // A file whose mtime is in the future (clock step) ages as
            // zero: it stays inside the grace window, never the reverse.
            let age_secs = meta
                .modified()
                .ok()
                .and_then(|m| now.duration_since(m).ok())
                .map_or(0, |d| d.as_secs());
            let len = meta.len().saturating_sub(BLOB_OVERHEAD);
            entries.push((key, age_secs, len));
        }
        entries.sort();
        Ok(entries)
    }

    /// Blob count and total payload bytes (framing excluded), for
    /// `HEALTH` reporting.
    pub fn usage(&self) -> std::io::Result<(u64, u64)> {
        let mut count = 0u64;
        let mut bytes = 0u64;
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.ends_with(BLOB_SUFFIX) {
                continue;
            }
            count += 1;
            bytes += entry.metadata()?.len().saturating_sub(BLOB_OVERHEAD);
        }
        Ok((count, bytes))
    }
}

/// Fill `head` then `body` from `f`, in one `readv(2)` where the file
/// delivers (it does, short of a signal). The file ending early is
/// `UnexpectedEof`.
fn read_scattered(f: &mut fs::File, head: &mut [u8], body: &mut [u8]) -> std::io::Result<()> {
    let mut filled = 0;
    while filled < head.len() {
        let bufs = &mut [IoSliceMut::new(&mut head[filled..]), IoSliceMut::new(body)];
        match f.read_vectored(bufs) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    f.read_exact(&mut body[filled - head.len()..])
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        s.push(char::from_digit((b & 0xF) as u32, 16).expect("nibble"));
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some((hi * 16 + lo) as u8)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> BlobStore {
        let dir = std::env::temp_dir().join(format!("ec_store_blob_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        BlobStore::open(&dir).unwrap()
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let store = temp_store("roundtrip");
        assert!(matches!(store.get("k"), Err(BlobError::NotFound)));
        store.put("k", b"hello world").unwrap();
        assert_eq!(store.get("k").unwrap(), b"hello world");
        // Overwrite replaces.
        store.put("k", b"v2").unwrap();
        assert_eq!(store.get("k").unwrap(), b"v2");
        assert!(store.delete("k").unwrap());
        assert!(!store.delete("k").unwrap());
        assert!(matches!(store.get("k"), Err(BlobError::NotFound)));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn empty_payload_and_odd_keys() {
        let store = temp_store("oddkeys");
        for key in ["a", "s:003:obj/with/slashes", "m:..", "k\u{00e9}y"] {
            store.put(key, b"").unwrap();
            assert_eq!(store.get(key).unwrap(), b"");
        }
        let mut keys = store.list("").unwrap();
        keys.sort();
        assert_eq!(keys.len(), 4);
        assert_eq!(store.list("s:").unwrap(), vec!["s:003:obj/with/slashes"]);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corruption_is_attributed() {
        let store = temp_store("corrupt");
        store.put("k", &[7u8; 100]).unwrap();
        let path = store.path_for("k");

        // Bit-flip in the payload → CRC mismatch.
        let mut bytes = fs::read(&path).unwrap();
        bytes[50] ^= 1;
        fs::write(&path, &bytes).unwrap();
        match store.get("k") {
            Err(BlobError::Corrupt(msg)) => assert!(msg.contains("CRC"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let stat = store.stat("k").unwrap();
        assert!(!stat.ok);

        // Truncation → length mismatch.
        store.put("k", &[7u8; 100]).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..40]).unwrap();
        match store.get("k") {
            Err(BlobError::Corrupt(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        // Below the frame minimum.
        fs::write(&path, b"xy").unwrap();
        assert!(matches!(store.get("k"), Err(BlobError::Corrupt(_))));

        // Bad magic.
        let mut bytes = vec![0u8; 20];
        bytes[0] = b'Z';
        fs::write(&path, &bytes).unwrap();
        match store.get("k") {
            Err(BlobError::Corrupt(msg)) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn stat_reports_healthy_blobs() {
        let store = temp_store("stat");
        store.put("k", b"0123456789").unwrap();
        let stat = store.stat("k").unwrap();
        assert_eq!(
            stat,
            BlobStat {
                len: 10,
                crc: crc32(b"0123456789"),
                ok: true
            }
        );
        assert!(matches!(store.stat("missing"), Err(BlobError::NotFound)));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn list_meta_reports_age_and_len() {
        let store = temp_store("listmeta");
        store.put("s:000g0000000000000001:obj", &[1u8; 64]).unwrap();
        store.put("s:001g0000000000000001:obj", &[2u8; 32]).unwrap();
        store.put("m:obj", b"manifest").unwrap();
        let entries = store.list_meta("s:").unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "s:000g0000000000000001:obj");
        assert_eq!(entries[0].2, 64);
        assert_eq!(entries[1].2, 32);
        // Just written: well inside any real grace window.
        assert!(entries.iter().all(|(_, age, _)| *age < 60));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn usage_counts_blobs() {
        let store = temp_store("usage");
        store.put("a", &[0u8; 100]).unwrap();
        store.put("b", &[0u8; 50]).unwrap();
        // A stray non-blob file is not counted.
        fs::write(store.root().join("stray.txt"), b"x").unwrap();
        assert_eq!(store.usage().unwrap(), (2, 150));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn open_sweeps_crash_leftover_temp_files() {
        let store = temp_store("sweep");
        store.put("k", b"v").unwrap();
        let stray = store.root().join("deadbeef.17.tmp");
        fs::write(&stray, b"half-written").unwrap();
        // Re-open: the orphaned temp file is gone, the blob survives.
        let store = BlobStore::open(store.root()).unwrap();
        assert!(!stray.exists());
        assert_eq!(store.get("k").unwrap(), b"v");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn hex_codec_roundtrips() {
        for key in ["", "abc", "s:000:x", "\u{1F4BE}"] {
            let enc = hex_encode(key.as_bytes());
            assert_eq!(hex_decode(&enc).unwrap(), key.as_bytes());
        }
        assert!(hex_decode("abc").is_none()); // odd length
        assert!(hex_decode("zz").is_none()); // non-hex
    }
}
