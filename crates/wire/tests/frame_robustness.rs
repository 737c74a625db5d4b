//! Wire-format robustness: every frame type round-trips through its wire
//! bytes, and no malformed input — truncated, oversized, garbage, or
//! wrong-schema — ever panics either end. Decode failures must be typed
//! [`WireError`]s.

use proptest::prelude::*;
use safeloc_nn::{Activation, HasParams, Sequential};
use safeloc_wire::{
    Frame, FrameConn, UpdateFrame, WireAvailability, WireError, ERR_SCHEMA, MAX_FRAME_LEN,
    WIRE_SCHEMA,
};

/// Lowercase identifier from generated letter indices.
fn word(letters: Vec<usize>) -> String {
    letters
        .into_iter()
        .map(|i| char::from(b'a' + (i % 26) as u8))
        .collect()
}

/// Deterministic parameters for frames that carry tensors.
fn params(rows: usize, cols: usize, seed: u64) -> safeloc_nn::NamedParams {
    Sequential::mlp(&[rows, cols], Activation::Relu, seed).snapshot()
}

fn assert_round_trip(frame: &Frame) -> Result<(), TestCaseError> {
    let bytes = frame.encode();
    // Appending to a buffer that already holds a frame writes the same bytes.
    let mut twice = bytes.clone();
    frame.encode_into(&mut twice);
    prop_assert_eq!(&twice[..bytes.len()], &bytes[..]);
    prop_assert_eq!(&twice[bytes.len()..], &bytes[..]);
    match Frame::decode(&bytes) {
        Ok((back, used)) => {
            prop_assert_eq!(&back, frame);
            prop_assert_eq!(used, bytes.len());
        }
        Err(e) => return Err(TestCaseError::fail(format!("decode failed: {e}"))),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hello_frames_round_trip(schema in 0u32..u32::MAX, ack in any::<bool>()) {
        let frame = if ack {
            Frame::HelloAck { schema }
        } else {
            Frame::Hello { schema }
        };
        assert_round_trip(&frame)?;
    }

    #[test]
    fn join_and_invite_round_trip(
        round in 0u32..10_000,
        client in 0u32..10_000,
        deadline_ms in 0u32..600_000,
    ) {
        assert_round_trip(&Frame::Join { client_index: client })?;
        assert_round_trip(&Frame::CohortInvite { round, client_index: client, deadline_ms })?;
    }

    #[test]
    fn round_plan_round_trips(
        round in 0u32..1_000,
        members in prop::collection::vec(0usize..3, 9),
    ) {
        let cohort = members
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let availability = match a {
                    0 => WireAvailability::Participates,
                    1 => WireAvailability::DropsOut,
                    _ => WireAvailability::Straggles,
                };
                (i as u32, availability)
            })
            .collect();
        assert_round_trip(&Frame::RoundPlan { round, cohort })?;
    }

    #[test]
    fn gm_broadcast_and_update_round_trip_bitwise(
        round in 0u32..100,
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..1_000,
        device in prop::collection::vec(0usize..26, 7),
        samples in 0u64..100_000,
    ) {
        let p = params(rows, cols, seed);
        assert_round_trip(&Frame::GmBroadcast {
            round,
            round_salt: (round as u64 + 1) << 16,
            params: p.clone(),
        })?;
        assert_round_trip(&Frame::Update(UpdateFrame {
            client_id: seed,
            round,
            building: 0,
            device_class: word(device),
            num_samples: samples,
            params: p,
        }))?;
    }

    #[test]
    fn localize_frames_round_trip(
        id in 0u64..u64::MAX,
        building in 0u32..64,
        device in prop::collection::vec(0usize..26, 5),
        rss in prop::collection::vec(-110.0f32..0.0, 12),
        label in 0u32..512,
        x in -50.0f32..50.0,
        y in -50.0f32..50.0,
        with_position in any::<bool>(),
        version in 0u64..1_000,
    ) {
        assert_round_trip(&Frame::LocalizeReq {
            id,
            building,
            device: word(device.clone()),
            rss_dbm: rss,
        })?;
        assert_round_trip(&Frame::LocalizeResp {
            id,
            label,
            position: if with_position { Some((x, y)) } else { None },
            device_class: word(device),
            model_version: version,
        })?;
    }

    #[test]
    fn error_and_bye_round_trip(code in 0u32..16, message in prop::collection::vec(0usize..26, 20)) {
        assert_round_trip(&Frame::Error { code: code as u16, message: word(message) })?;
        assert_round_trip(&Frame::Bye)?;
    }

    #[test]
    fn truncation_at_any_point_is_a_typed_error(
        cut_fraction in 0.0f64..1.0,
        seed in 0u64..50,
    ) {
        let frame = Frame::Update(UpdateFrame {
            client_id: 1,
            round: 2,
            building: 0,
            device_class: "phone".to_string(),
            num_samples: 10,
            params: params(3, 4, seed),
        });
        let bytes = frame.encode();
        let cut = ((bytes.len() - 1) as f64 * cut_fraction) as usize;
        match Frame::decode(&bytes[..cut]) {
            Err(WireError::Truncated { .. }) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "expected Truncated at cut {cut}, got {other}"
                )))
            }
            Ok(_) => {
                return Err(TestCaseError::fail(format!(
                    "decode of a {cut}-byte prefix of a {}-byte frame succeeded",
                    bytes.len()
                )))
            }
        }
    }

    #[test]
    fn garbage_bytes_never_panic(
        len in 0usize..64,
        junk in prop::collection::vec(0u32..256, 64),
    ) {
        let bytes: Vec<u8> = junk.into_iter().take(len).map(|b| b as u8).collect();
        // Any outcome is fine as long as it is a value, not a panic; an
        // Err must be one of the typed variants by construction.
        let _ = Frame::decode(&bytes);
        let _ = Frame::decode_body(&bytes);
    }

    #[test]
    fn unknown_tags_are_typed(tag in 0x10u32..0xFF) {
        let body = vec![tag as u8];
        prop_assert_eq!(Frame::decode_body(&body), Err(WireError::UnknownTag(tag as u8)));
    }

    #[test]
    fn corrupting_one_byte_never_panics(
        victim_fraction in 0.0f64..1.0,
        xor in 1u32..256,
        seed in 0u64..50,
    ) {
        let frame = Frame::GmBroadcast {
            round: 1,
            round_salt: 2 << 16,
            params: params(4, 3, seed),
        };
        let mut bytes = frame.encode();
        let victim = ((bytes.len() - 1) as f64 * victim_fraction) as usize;
        bytes[victim] ^= xor as u8;
        let _ = Frame::decode(&bytes); // must return, never panic
    }
}

#[test]
fn oversized_length_prefix_is_rejected() {
    let mut bytes = ((MAX_FRAME_LEN as u32) + 1).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 8]);
    assert!(matches!(
        Frame::decode(&bytes),
        Err(WireError::Oversized { .. })
    ));
}

#[test]
fn bad_availability_code_and_position_flag_are_typed() {
    // RoundPlan with availability code 9.
    let good = Frame::RoundPlan {
        round: 0,
        cohort: vec![(0, WireAvailability::Participates)],
    };
    let mut bytes = good.encode();
    let last = bytes.len() - 1;
    bytes[last] = 9;
    assert!(matches!(
        Frame::decode(&bytes),
        Err(WireError::BadPayload(_))
    ));

    let resp = Frame::LocalizeResp {
        id: 0,
        label: 0,
        position: None,
        device_class: String::new(),
        model_version: 0,
    };
    let mut bytes = resp.encode();
    // The position flag sits right after id (8) + label (4) + tag (1) +
    // prefix (4).
    bytes[4 + 1 + 8 + 4] = 7;
    assert!(matches!(
        Frame::decode(&bytes),
        Err(WireError::BadPayload(_))
    ));
}

#[test]
fn invalid_utf8_strings_are_typed() {
    let good = Frame::Error {
        code: 1,
        message: "ab".to_string(),
    };
    let mut bytes = good.encode();
    let last = bytes.len() - 1;
    bytes[last] = 0xFF; // not valid UTF-8 as a lone byte
    assert!(matches!(
        Frame::decode(&bytes),
        Err(WireError::BadPayload(_))
    ));
}

/// Client path: a server speaking a newer schema is rejected with a typed
/// error, not a panic or a garbled decode.
#[test]
fn client_rejects_wrong_schema_server() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake_server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut conn = FrameConn::new(stream);
        match conn.recv().unwrap() {
            Frame::Hello { .. } => conn
                .send(&Frame::HelloAck {
                    schema: WIRE_SCHEMA + 1,
                })
                .unwrap(),
            other => panic!("expected Hello, got {}", other.kind()),
        }
    });
    let mut conn = FrameConn::connect(addr).unwrap();
    assert_eq!(
        conn.client_handshake(),
        Err(WireError::SchemaVersion {
            ours: WIRE_SCHEMA,
            theirs: WIRE_SCHEMA + 1
        })
    );
    fake_server.join().unwrap();
}

/// Server path: a client speaking an older schema gets a typed error
/// frame (code [`ERR_SCHEMA`]) before the connection closes.
#[test]
fn server_rejects_wrong_schema_client() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        FrameConn::new(stream).server_handshake()
    });
    let mut conn = FrameConn::connect(addr).unwrap();
    conn.send(&Frame::Hello { schema: 0 }).unwrap();
    assert_eq!(
        server.join().unwrap(),
        Err(WireError::SchemaVersion {
            ours: WIRE_SCHEMA,
            theirs: 0
        })
    );
    match conn.recv().unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ERR_SCHEMA),
        other => panic!("expected Error frame, got {}", other.kind()),
    }
}
