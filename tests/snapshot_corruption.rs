//! Negative tests for the snapshot decoder: corrupt, truncated and
//! adversarial buffers must return [`SnapshotError`]s — never panic, and
//! never allocate proportionally to attacker-chosen length fields.
//!
//! The table-driven half mutates one field of a *valid* snapshot at a time
//! and names the expected failure; the sweep half tries every truncation
//! prefix and a byte-level fuzz over single-byte mutations (any outcome is
//! fine there as long as the decoder terminates without panicking, since
//! some payload mutations decode to different-but-valid data).

use axiom_repro::axiom::{AxiomMultiMap, AxiomSet};
use axiom_repro::sharded::ShardedMultiMap;
use axiom_repro::trie_common::snapshot::{
    inspect, SnapshotError, SnapshotRead, SnapshotWrite, HEADER_BYTES, MAGIC, SHARD_ENTRY_BYTES,
    VERSION,
};

type Mm = AxiomMultiMap<u32, u32>;

fn valid_snapshot() -> Vec<u8> {
    let mm: Mm = (0..200u32).map(|i| (i / 3, i)).collect();
    mm.snapshot_bytes().expect("encode")
}

fn valid_sharded_snapshot() -> Vec<u8> {
    let mm: ShardedMultiMap<u32, u32> =
        ShardedMultiMap::build_parallel(8, (0..500u32).map(|i| (i % 50, i)));
    mm.save_snapshot().expect("encode")
}

/// Overwrites `bytes[at..at+patch.len()]` with `patch`.
fn patched(bytes: &[u8], at: usize, patch: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + patch.len()].copy_from_slice(patch);
    out
}

#[test]
fn mutated_fields_fail_with_named_errors() {
    let good = valid_snapshot();
    assert!(Mm::read_snapshot(&good).is_ok(), "fixture must be valid");

    struct Case {
        name: &'static str,
        bytes: Vec<u8>,
        check: fn(&SnapshotError) -> bool,
    }
    let cases = [
        Case {
            name: "wrong magic",
            bytes: patched(&good, 0, b"NOPE"),
            check: |e| matches!(e, SnapshotError::BadMagic(_)),
        },
        Case {
            name: "zero version",
            bytes: patched(&good, 4, &0u16.to_le_bytes()),
            check: |e| matches!(e, SnapshotError::UnsupportedVersion(0)),
        },
        Case {
            name: "future version",
            bytes: patched(&good, 4, &(VERSION + 1).to_le_bytes()),
            check: |e| matches!(e, SnapshotError::UnsupportedVersion(_)),
        },
        Case {
            name: "unknown kind byte",
            bytes: patched(&good, 6, &[0xEE]),
            check: |e| matches!(e, SnapshotError::UnknownKind(0xEE)),
        },
        Case {
            name: "kind zero",
            bytes: patched(&good, 6, &[0]),
            check: |e| matches!(e, SnapshotError::UnknownKind(0)),
        },
        Case {
            name: "shard count beyond the buffer",
            bytes: patched(&good, 8, &u32::MAX.to_le_bytes()),
            check: |e| matches!(e, SnapshotError::Truncated { .. }),
        },
        Case {
            name: "item count inflated (payload too short for it)",
            bytes: patched(&good, HEADER_BYTES, &u64::MAX.to_le_bytes()),
            check: |e| matches!(e, SnapshotError::Truncated { .. }),
        },
        Case {
            name: "item count deflated (payload has trailing bytes)",
            bytes: patched(&good, HEADER_BYTES, &1u64.to_le_bytes()),
            check: |e| matches!(e, SnapshotError::TrailingBytes { .. }),
        },
        Case {
            name: "payload length overflowing u64 arithmetic",
            bytes: patched(&good, HEADER_BYTES + 8, &u64::MAX.to_le_bytes()),
            check: |e| {
                matches!(
                    e,
                    SnapshotError::SectionSizeMismatch { .. } | SnapshotError::LengthOverflow
                )
            },
        },
        Case {
            name: "payload length one past the buffer",
            bytes: {
                let info = inspect(&good).unwrap();
                patched(
                    &good,
                    HEADER_BYTES + 8,
                    &(info.shards[0].1 + 1).to_le_bytes(),
                )
            },
            check: |e| matches!(e, SnapshotError::SectionSizeMismatch { .. }),
        },
        Case {
            name: "trailing garbage after the payloads",
            bytes: {
                let mut b = good.clone();
                b.extend_from_slice(b"junk");
                b
            },
            check: |e| matches!(e, SnapshotError::SectionSizeMismatch { .. }),
        },
        Case {
            // Since v2 every payload carries a checksum, so a corrupted
            // value tag is caught by framing before the codec ever runs.
            name: "corrupted byte in the payload",
            bytes: patched(&good, HEADER_BYTES + SHARD_ENTRY_BYTES, &[0xFF]),
            check: |e| matches!(e, SnapshotError::ChecksumMismatch { shard: 0, .. }),
        },
        Case {
            name: "empty buffer",
            bytes: Vec::new(),
            check: |e| matches!(e, SnapshotError::Truncated { .. }),
        },
        Case {
            name: "wrong collection kind for the reader",
            bytes: {
                let set: AxiomSet<u32> = (0..10).collect();
                set.snapshot_bytes().unwrap()
            },
            check: |e| matches!(e, SnapshotError::WrongKind { .. }),
        },
    ];

    for case in &cases {
        let err = Mm::read_snapshot(&case.bytes)
            .expect_err(&format!("case `{}` unexpectedly decoded", case.name));
        assert!(
            (case.check)(&err),
            "case `{}` produced unexpected error: {err} ({err:?})",
            case.name
        );
    }
}

/// A huge declared item count with a tiny payload must fail fast without
/// allocating for the claim (the decoder only ever allocates what the
/// payload can actually hold).
#[test]
fn inflated_counts_never_balloon_allocation() {
    let good = valid_snapshot();
    for claim in [u64::MAX, u64::MAX / 2, 1 << 40] {
        let bad = patched(&good, HEADER_BYTES, &claim.to_le_bytes());
        let start = std::time::Instant::now();
        assert!(Mm::read_snapshot(&bad).is_err());
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "decoder did not fail fast on a {claim}-item claim"
        );
    }
}

#[test]
fn every_truncation_prefix_errors() {
    let good = valid_snapshot();
    for cut in 0..good.len() {
        assert!(
            Mm::read_snapshot(&good[..cut]).is_err(),
            "prefix of {cut}/{} bytes decoded successfully",
            good.len()
        );
    }
}

#[test]
fn sharded_truncation_and_mutation_never_panic() {
    let good = valid_sharded_snapshot();
    assert!(ShardedMultiMap::<u32, u32>::read_snapshot(&good).is_ok());

    // Truncations (sampled: the buffer is a few KB).
    for cut in (0..good.len()).step_by(7).chain([good.len() - 1]) {
        assert!(
            ShardedMultiMap::<u32, u32>::load_snapshot(&good[..cut], 4).is_err(),
            "sharded prefix of {cut} bytes decoded"
        );
    }

    // Single-byte mutations over the header + shard table + the first
    // payload bytes: decoding may succeed (a value byte may still be
    // valid) but must terminate cleanly; when it succeeds the framing was
    // sound enough that counts agreed.
    let probe = (HEADER_BYTES + 8 * SHARD_ENTRY_BYTES + 64).min(good.len());
    for at in 0..probe {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut bad = good.clone();
            bad[at] ^= flip;
            let _ = ShardedMultiMap::<u32, u32>::load_snapshot(&bad, 2);
        }
    }
}

/// Mutating one shard's table entry of a multi-section snapshot reports the
/// failure without touching the other sections' validity.
#[test]
fn sharded_table_mutations_are_localized_errors() {
    let good = valid_sharded_snapshot();
    let info = inspect(&good).unwrap();
    assert_eq!(info.shards.len(), 8);

    // Shrink shard 3's declared byte length by one: the total no longer
    // matches the buffer.
    let entry = HEADER_BYTES + 3 * SHARD_ENTRY_BYTES;
    let bad = patched(&good, entry + 8, &(info.shards[3].1 - 1).to_le_bytes());
    assert!(matches!(
        ShardedMultiMap::<u32, u32>::load_snapshot(&bad, 8),
        Err(SnapshotError::SectionSizeMismatch { .. })
    ));

    // Inflate shard 5's item count: its payload runs out.
    let entry = HEADER_BYTES + 5 * SHARD_ENTRY_BYTES;
    let bad = patched(&good, entry, &(info.shards[5].0 + 1).to_le_bytes());
    let err = ShardedMultiMap::<u32, u32>::load_snapshot(&bad, 8).unwrap_err();
    assert!(
        matches!(
            err,
            SnapshotError::Truncated { .. } | SnapshotError::Codec(_)
        ),
        "unexpected error: {err:?}"
    );
}

#[test]
fn magic_prefix_is_stable() {
    // The wire constants are load-bearing for cross-version compatibility;
    // pin them so an accidental change fails loudly. v2 added per-shard
    // payload checksums to the table entries.
    assert_eq!(MAGIC, *b"AXSN");
    assert_eq!(VERSION, 2);
    let good = valid_snapshot();
    assert_eq!(&good[0..4], b"AXSN");
    assert_eq!(u16::from_le_bytes([good[4], good[5]]), 2);
}

/// Every single-bit flip anywhere in a shard payload is detected by that
/// shard's checksum, and the error names the culprit shard.
#[test]
fn payload_bit_flips_are_detected_and_blamed() {
    let good = valid_sharded_snapshot();
    let info = inspect(&good).unwrap();
    let payload_start = HEADER_BYTES + info.shards.len() * SHARD_ENTRY_BYTES;

    // Walk the shard boundaries so every shard gets a flipped byte: first,
    // middle and last byte of each payload.
    let mut offset = payload_start;
    for (shard, &(_, len)) in info.shards.iter().enumerate() {
        let len = len as usize;
        if len == 0 {
            continue;
        }
        for at in [offset, offset + len / 2, offset + len - 1] {
            for bit in [0, 4, 7] {
                let mut bad = good.clone();
                bad[at] ^= 1 << bit;
                match ShardedMultiMap::<u32, u32>::load_snapshot(&bad, 8) {
                    Err(SnapshotError::ChecksumMismatch {
                        shard: blamed,
                        stored,
                        computed,
                    }) => {
                        assert_eq!(blamed, shard, "flip at byte {at} blamed the wrong shard");
                        assert_ne!(stored, computed);
                    }
                    other => panic!(
                        "flip at byte {at} bit {bit}: expected a checksum mismatch, got {other:?}"
                    ),
                }
            }
        }
        offset += len;
    }
}

/// Bytes per shard-table entry in version-1 frames (item count + payload
/// length, no checksum column).
const SHARD_ENTRY_BYTES_V1: usize = 16;

/// Down-converts a v2 snapshot to the v1 framing (no checksums), the bytes
/// a pre-checksum release wrote.
fn downgrade_to_v1(v2: &[u8]) -> Vec<u8> {
    let info = inspect(v2).unwrap();
    let mut out = v2[..HEADER_BYTES].to_vec();
    out[4..6].copy_from_slice(&1u16.to_le_bytes());
    for (i, &(count, len)) in info.shards.iter().enumerate() {
        let entry = HEADER_BYTES + i * SHARD_ENTRY_BYTES;
        out.extend_from_slice(&v2[entry..entry + SHARD_ENTRY_BYTES_V1]);
        debug_assert_eq!(
            count,
            u64::from_le_bytes(v2[entry..entry + 8].try_into().unwrap())
        );
        debug_assert_eq!(
            len,
            u64::from_le_bytes(v2[entry + 8..entry + 16].try_into().unwrap())
        );
    }
    out.extend_from_slice(&v2[HEADER_BYTES + info.shards.len() * SHARD_ENTRY_BYTES..]);
    out
}

#[test]
fn version_1_snapshots_are_rejected() {
    let reference: ShardedMultiMap<u32, u32> =
        ShardedMultiMap::build_parallel(8, (0..500u32).map(|i| (i % 50, i)));
    let v1 = downgrade_to_v1(&reference.save_snapshot().unwrap());
    assert_eq!(u16::from_le_bytes([v1[4], v1[5]]), 1);

    // v1 framing carries no checksums, so its payloads cannot be verified:
    // restore refuses the frame (without panicking) rather than decode
    // bytes that may have flipped.
    assert_eq!(
        ShardedMultiMap::<u32, u32>::load_snapshot(&v1, 8).err(),
        Some(SnapshotError::UnsupportedVersion(1))
    );
    assert_eq!(
        Mm::read_snapshot(&downgrade_to_v1(&valid_snapshot())).err(),
        Some(SnapshotError::UnsupportedVersion(1))
    );
}
