//! Snapshot codec tests: round trips for every primitive and every
//! `Value` variant, plus the typed-error guarantees — corrupted,
//! truncated, or foreign bytes must produce a `SnapshotError`, never a
//! panic (the service feeds these bytes across process and version
//! boundaries, DESIGN.md §15).

use ceal_runtime::value::{FuncId, Loc, ModRef, StrId};
use ceal_runtime::Value;
use ceal_service::snapshot::{checksum, SnapshotError, SnapshotReader, SnapshotWriter, MAGIC};

fn all_values() -> Vec<Value> {
    vec![
        Value::Nil,
        Value::Int(0),
        Value::Int(i64::MAX),
        Value::Int(i64::MIN),
        Value::Int(-1),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Float(f64::NEG_INFINITY),
        Value::Ptr(Loc(0)),
        Value::Ptr(Loc(u32::MAX)),
        Value::ModRef(ModRef(7)),
        Value::Func(FuncId(3)),
        Value::Str(StrId(u32::MAX - 1)),
    ]
}

#[test]
fn every_value_variant_round_trips() {
    let mut w = SnapshotWriter::new();
    for &v in &all_values() {
        w.value(v);
    }
    let bytes = w.finish();
    let mut r = SnapshotReader::new(&bytes).unwrap();
    for &v in &all_values() {
        // Value equality is bit-wise for floats, so NaN round trips.
        assert_eq!(r.value().unwrap(), v);
    }
    r.expect_end().unwrap();
}

#[test]
fn primitives_round_trip() {
    let mut w = SnapshotWriter::new();
    w.u8(0xAB);
    w.u64(0xDEAD_BEEF_CAFE_F00D);
    w.ivarint(-123_456_789);
    w.ivarint(i64::MIN);
    w.bytes(&[1, 2, 3]);
    w.str("héllo");
    w.bytes(&[]);
    let bytes = w.finish();

    let mut r = SnapshotReader::new(&bytes).unwrap();
    assert_eq!(r.u8().unwrap(), 0xAB);
    assert_eq!(r.u64().unwrap(), 0xDEAD_BEEF_CAFE_F00D);
    assert_eq!(r.ivarint().unwrap(), -123_456_789);
    assert_eq!(r.ivarint().unwrap(), i64::MIN);
    assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
    assert_eq!(r.str().unwrap(), "héllo");
    assert_eq!(r.bytes().unwrap(), &[] as &[u8]);
    r.expect_end().unwrap();
}

#[test]
fn foreign_bytes_are_bad_magic() {
    assert_eq!(
        SnapshotReader::new(b"not a snapshot, sorry...").unwrap_err(),
        SnapshotError::BadMagic
    );
}

#[test]
fn short_inputs_are_truncated_not_panics() {
    // Every prefix of a valid snapshot must fail with a typed error.
    let mut w = SnapshotWriter::new();
    w.str("truncate me");
    w.u64(42);
    let bytes = w.finish();
    for len in 0..bytes.len() {
        let err = SnapshotReader::new(&bytes[..len]).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. }
                    | SnapshotError::BadMagic
                    | SnapshotError::BadChecksum { .. }
            ),
            "prefix of {len} bytes: unexpected {err:?}"
        );
    }
}

#[test]
fn future_version_is_refused() {
    let mut w = SnapshotWriter::new();
    w.varint(9);
    let mut bytes = w.finish();
    // Patch the version field to a future one and re-seal the checksum
    // so only the version check can object.
    bytes[MAGIC.len()] = 0xFF;
    bytes[MAGIC.len() + 1] = 0x7F;
    let body_len = bytes.len() - 8;
    let sum = checksum(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    assert_eq!(
        SnapshotReader::new(&bytes).unwrap_err(),
        SnapshotError::UnsupportedVersion(0x7FFF)
    );
}

#[test]
fn flipped_payload_bytes_fail_checksum() {
    let mut w = SnapshotWriter::new();
    for &v in &all_values() {
        w.value(v);
    }
    let good = w.finish();
    // Flip one bit at every payload position (skip magic: that fails
    // earlier with BadMagic, also typed).
    for i in MAGIC.len()..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 1;
        let err = SnapshotReader::new(&bad).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::BadChecksum { .. } | SnapshotError::UnsupportedVersion(_)
            ),
            "flip at {i}: unexpected {err:?}"
        );
    }
}

#[test]
fn in_frame_corruption_yields_corrupt_errors() {
    // Build a frame whose checksum is valid but whose payload lies:
    // a 10-byte varint with all continuation bits set.
    let mut w = SnapshotWriter::new();
    for _ in 0..10 {
        w.u8(0xFF);
    }
    let bytes = w.finish();
    let mut r = SnapshotReader::new(&bytes).unwrap();
    assert!(matches!(r.varint(), Err(SnapshotError::Corrupt(_))));

    // Unknown value tag.
    let mut w = SnapshotWriter::new();
    w.u8(250);
    let bytes = w.finish();
    let mut r = SnapshotReader::new(&bytes).unwrap();
    assert!(matches!(r.value(), Err(SnapshotError::Corrupt(_))));

    // Byte-string length larger than the remaining payload.
    let mut w = SnapshotWriter::new();
    w.varint(1_000_000);
    let bytes = w.finish();
    let mut r = SnapshotReader::new(&bytes).unwrap();
    assert!(matches!(r.bytes(), Err(SnapshotError::Corrupt(_))));

    // Handle id wider than u32.
    let mut w = SnapshotWriter::new();
    w.u8(4); // modref tag
    w.varint(u64::from(u32::MAX) + 1);
    let bytes = w.finish();
    let mut r = SnapshotReader::new(&bytes).unwrap();
    assert!(matches!(r.value(), Err(SnapshotError::Corrupt(_))));
}

#[test]
fn trailing_bytes_are_reported() {
    let mut w = SnapshotWriter::new();
    w.varint(1);
    w.varint(2);
    let bytes = w.finish();
    let mut r = SnapshotReader::new(&bytes).unwrap();
    assert_eq!(r.varint().unwrap(), 1);
    assert_eq!(r.expect_end().unwrap_err(), SnapshotError::TrailingBytes(1));
}

#[test]
fn errors_display_their_class() {
    let e = SnapshotError::UnsupportedVersion(9);
    assert!(e.to_string().contains("version 9"));
    let e = SnapshotError::Truncated { at: 3, need: 5 };
    assert!(e.to_string().contains("truncated"));
    let e = SnapshotError::BadChecksum {
        stored: 1,
        computed: 2,
    };
    assert!(e.to_string().contains("checksum"));
    let e = SnapshotError::TrailingBytes(4);
    assert!(e.to_string().contains("trailing"));
}
