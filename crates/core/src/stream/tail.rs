//! Rotated-capture-directory tailing.
//!
//! `keddah serve` watches a directory that a capture pipeline rotates
//! files into (the "Live Pipeline" shape: tcpdump writes `cap.0`,
//! `cap.1`, … and a post-processor consumes finished rotations). The
//! tailer's contract:
//!
//! * a file is **ready** once its size is unchanged across two
//!   consecutive polls — a cheap writer-finished heuristic that makes
//!   atomic renames ready on the second poll and never hands a
//!   half-written rotation to the parser;
//! * ready files are returned in **sorted name order**, so rotation
//!   sequences ingest deterministically regardless of directory
//!   enumeration order;
//! * each file is consumed **once**; the tailer remembers what it has
//!   returned for the daemon's lifetime.
//!
//! Only `.jsonl` (flow traces) and `.txt` (packet text) files are
//! considered; everything else in the directory is ignored.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// Polls a directory for finished capture rotations.
#[derive(Debug)]
pub struct DirTailer {
    dir: PathBuf,
    /// Last observed size of not-yet-ready candidates.
    pending: HashMap<PathBuf, u64>,
    processed: BTreeSet<PathBuf>,
}

impl DirTailer {
    /// Creates a tailer over `dir`. The directory may not exist yet; the
    /// poll simply finds nothing until it does.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> DirTailer {
        DirTailer {
            dir: dir.into(),
            pending: HashMap::new(),
            processed: BTreeSet::new(),
        }
    }

    /// One poll: returns files that became ready, sorted by name.
    ///
    /// # Errors
    ///
    /// Returns directory enumeration errors; a vanished candidate file is
    /// not an error (rotations may be cleaned up concurrently).
    pub fn poll(&mut self) -> std::io::Result<Vec<PathBuf>> {
        let mut ready = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ready),
            Err(e) => return Err(e),
        };
        for entry in entries {
            // A transient per-entry failure (e.g. a rotation unlinked
            // between readdir and stat) must not abort the whole poll
            // and drop the other candidates on the floor.
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            if self.processed.contains(&path) || !is_capture_file(&path) {
                continue;
            }
            let Ok(meta) = entry.metadata() else {
                continue; // vanished mid-poll
            };
            if !meta.is_file() {
                continue;
            }
            let size = meta.len();
            match self.pending.get(&path) {
                Some(&seen) if seen == size => {
                    self.pending.remove(&path);
                    self.processed.insert(path.clone());
                    ready.push(path);
                }
                _ => {
                    self.pending.insert(path, size);
                }
            }
        }
        ready.sort();
        Ok(ready)
    }
}

fn is_capture_file(path: &Path) -> bool {
    matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("jsonl") | Some("txt")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("keddah-tail-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_is_ready_after_two_stable_polls() {
        let dir = tmp_dir("stable");
        let mut tailer = DirTailer::new(&dir);
        assert!(tailer.poll().unwrap().is_empty(), "empty dir");

        std::fs::write(dir.join("cap.0.jsonl"), "header\n").unwrap();
        assert!(tailer.poll().unwrap().is_empty(), "first sighting");
        let ready = tailer.poll().unwrap();
        assert_eq!(ready, vec![dir.join("cap.0.jsonl")]);
        assert!(tailer.poll().unwrap().is_empty(), "consumed once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn growing_file_is_held_back() {
        let dir = tmp_dir("growing");
        let mut tailer = DirTailer::new(&dir);
        std::fs::write(dir.join("cap.0.txt"), "a\n").unwrap();
        assert!(tailer.poll().unwrap().is_empty());
        std::fs::write(dir.join("cap.0.txt"), "a\nb\n").unwrap(); // grew
        assert!(tailer.poll().unwrap().is_empty(), "size changed: not ready");
        let ready = tailer.poll().unwrap();
        assert_eq!(ready.len(), 1, "stable again: ready");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ready_files_come_out_in_name_order() {
        let dir = tmp_dir("order");
        let mut tailer = DirTailer::new(&dir);
        std::fs::write(dir.join("cap.1.jsonl"), "b\n").unwrap();
        std::fs::write(dir.join("cap.0.jsonl"), "a\n").unwrap();
        std::fs::write(dir.join("notes.md"), "ignored\n").unwrap();
        let _ = tailer.poll().unwrap();
        let ready = tailer.poll().unwrap();
        assert_eq!(
            ready,
            vec![dir.join("cap.0.jsonl"), dir.join("cap.1.jsonl")]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_not_an_error() {
        let mut tailer = DirTailer::new("/nonexistent/keddah-tail-test");
        assert!(tailer.poll().unwrap().is_empty());
    }
}
