//! Crash at every byte: the torn-tail contract of DESIGN.md §7, checked
//! exhaustively for one seeded history instead of at the offsets a fault
//! plan happens to pick.
//!
//! A group-commit registry records about 60 events (registrations,
//! duplicate readouts, unlocks and disables). Client labels are
//! non-ASCII and written raw, so many cuts land inside a multi-byte
//! character. The journal is then cut at every byte offset and each cut
//! is cold-opened: recovery must equal a strict replay of the last
//! complete line, with the torn bytes truncated from the file. After a compaction the snapshot is cut at every offset
//! too: each reopen either recovers the full state or refuses with
//! `InvalidData`.

use hwm_service::{snapshot_path, FlushPolicy, RecoverOptions, Registry};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

const EVENTS: u64 = 60;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hwm-every-byte-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a seeded history of `EVENTS` events to a group-commit journal
/// at `path` and commits it. A small readout pool makes duplicates
/// (clone evidence) common.
fn write_history(path: &Path) {
    let mut r = Registry::open_with(
        path,
        RecoverOptions {
            flush: FlushPolicy::group_commit(),
            ..RecoverOptions::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(2024);
    let mut next_ic = 0;
    while r.journal_len() < EVENTS {
        let client = format!("fäb-{}", rng.random_range(0..3));
        let roll = rng.random_range(0..10);
        if roll < 5 || next_ic == 0 {
            let readout = format!("{:08b}", rng.random_range(0..24u32));
            let _ = r.register(
                &client,
                &format!("ic-{next_ic}"),
                &readout,
                rng.random_range(0..4),
            );
            next_ic += 1;
        } else {
            let ic = format!("ic-{}", rng.random_range(0..next_ic));
            if roll < 8 {
                let _ = r.mark_unlocked(&ic, rng.random_range(4..12), &client);
            } else {
                let _ = r.mark_disabled(&ic, &client);
            }
        }
    }
    r.commit().unwrap();
    assert!(r.counts().duplicates > 0, "history has clone evidence");
    assert!(r.counts().unlocked > 0 && r.counts().disabled > 0);
}

#[test]
fn every_journal_cut_recovers_the_last_complete_line() {
    let dir = temp_dir("journal");
    let path = dir.join("journal.jsonl");
    write_history(&path);
    let bytes = std::fs::read(&path).unwrap();
    let text = std::str::from_utf8(&bytes).unwrap();
    assert!(!text.is_ascii(), "labels are written raw");
    for cut in 0..=bytes.len() {
        let complete = bytes[..cut]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let oracle = Registry::replay(&text[..complete]).unwrap();
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let r = Registry::open(&path).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(r.records(), oracle.records(), "cut {cut}");
        assert_eq!(r.clones(), oracle.clones(), "cut {cut}");
        assert_eq!(r.rolling_digest(), oracle.rolling_digest(), "cut {cut}");
        assert_eq!(
            r.torn_tail().map_or(0, |t| t.bytes),
            cut - complete,
            "cut {cut}"
        );
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            complete as u64,
            "cut {cut}: torn bytes truncated away"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_snapshot_cut_recovers_in_full_or_refuses() {
    let dir = temp_dir("snapshot");
    let path = dir.join("journal.jsonl");
    write_history(&path);
    let oracle = Registry::replay(&std::fs::read_to_string(&path).unwrap()).unwrap();
    Registry::open(&path).unwrap().compact().unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        b"",
        "compaction emptied the journal"
    );
    let snap = snapshot_path(&path);
    let bytes = std::fs::read(&snap).unwrap();
    let mut clean = Vec::new();
    for cut in 0..=bytes.len() {
        std::fs::write(&snap, &bytes[..cut]).unwrap();
        std::fs::write(&path, b"").unwrap();
        match Registry::open(&path) {
            Ok(r) => {
                assert_eq!(r.records(), oracle.records(), "cut {cut}");
                assert_eq!(r.clones(), oracle.clones(), "cut {cut}");
                assert_eq!(r.rolling_digest(), oracle.rolling_digest(), "cut {cut}");
                assert_eq!(r.journal_len(), EVENTS, "cut {cut}");
                clean.push(cut);
            }
            Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "cut {cut}: {e}"),
        }
    }
    // Only the whole document opens, with or without its newline.
    assert_eq!(clean, [bytes.len() - 1, bytes.len()]);
    let _ = std::fs::remove_dir_all(&dir);
}
