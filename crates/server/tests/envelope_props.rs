//! The response envelope writers against the builders they replaced.
//!
//! The server writes each envelope straight into a connection's write
//! buffer when the response goes out (`write_ok_envelope` /
//! `write_err_envelope`), and `ok_envelope_coalesced` /
//! `err_envelope_with_flight` are thin wrappers over the same writers.
//! The builders they replaced are kept below as the oracle for the
//! exact bytes: hostile ids (quotes, control bytes, `😀`, nested
//! objects, every number shape), arbitrary result bodies and messages,
//! written after whatever the buffer already holds.

use datareuse_obs::Json;
use datareuse_proptest::{check, prop_assert_eq, Config, Rng};
use datareuse_server::protocol::{
    err_envelope, err_envelope_with_flight, ok_envelope, ok_envelope_coalesced,
    write_err_envelope, write_ok_envelope, E_BAD_REQUEST, E_INTERNAL, E_OVERLOADED,
    E_SHUTTING_DOWN, E_TIMEOUT,
};

/// The success envelope builder the writer replaced.
fn reference_ok(id: Option<&Json>, cached: bool, coalesced: bool, result_raw: &str) -> String {
    let mut out = String::with_capacity(result_raw.len() + 64);
    out.push_str("{\"ok\":true");
    if let Some(id) = id {
        out.push_str(",\"id\":");
        out.push_str(&id.to_string());
    }
    out.push_str(",\"cached\":");
    out.push_str(if cached { "true" } else { "false" });
    if coalesced {
        out.push_str(",\"coalesced\":true");
    }
    out.push_str(",\"result\":");
    out.push_str(result_raw);
    out.push('}');
    out
}

/// The error envelope builder the writer replaced.
fn reference_err(id: Option<&Json>, code: &str, message: &str, flight: Option<Json>) -> String {
    let mut obj = vec![("ok".to_string(), Json::Bool(false))];
    if let Some(id) = id {
        obj.push(("id".to_string(), id.clone()));
    }
    let mut error = vec![
        ("code".to_string(), Json::str(code)),
        ("message".to_string(), Json::str(message)),
    ];
    if let Some(tail) = flight {
        error.push(("flight".to_string(), tail));
    }
    obj.push(("error".to_string(), Json::Obj(error)));
    Json::Obj(obj).to_string()
}

/// Text with escapes first, last and adjacent, control bytes and
/// multi-byte characters next to them.
fn hostile_string(rng: &mut Rng) -> String {
    const PIECES: &[&str] = &[
        "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "γ\"", "\\😀", "😀", "€",
        "plain ", "}", "{\"ok\":",
    ];
    (0..rng.usize_in(0, 12))
        .map(|_| PIECES[rng.usize_in(0, PIECES.len() - 1)])
        .collect()
}

/// A JSON value of any shape, nested up to `depth` containers.
fn hostile_value(rng: &mut Rng, depth: usize) -> Json {
    match rng.u64_in(0, if depth == 0 { 6 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.u64_in(0, 1) == 1),
        2 => Json::UInt(rng.next_u64()),
        3 => Json::Int(rng.i64_in(i64::MIN, -1)),
        4 => Json::Num((rng.f64() - 0.5) * 1e300),
        5 => Json::Num(rng.f64() * 1e-300),
        6 => Json::str(hostile_string(rng)),
        7 => Json::arr((0..rng.usize_in(0, 3)).map(|_| hostile_value(rng, depth - 1))),
        _ => Json::Obj(
            (0..rng.usize_in(0, 3))
                .map(|_| (hostile_string(rng), hostile_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// `(id, body, message, flags)`: the id as JSON text (empty for none),
/// a result body, an error message, and bits choosing `cached`,
/// `coalesced`, a flight tail, the error code and what the buffer
/// already holds.
type Case = (String, String, String, u64);

fn case(rng: &mut Rng) -> Case {
    let id = match rng.u64_in(0, 3) {
        0 => String::new(),
        _ => hostile_value(rng, 3).to_string(),
    };
    let body = match rng.u64_in(0, 2) {
        0 => hostile_string(rng),
        _ => hostile_value(rng, 4).to_string(),
    };
    (id, body, hostile_string(rng), rng.next_u64())
}

#[test]
fn envelopes_are_written_byte_for_byte_as_the_builders_wrote_them() {
    const CODES: [&str; 6] =
        [E_BAD_REQUEST, E_OVERLOADED, E_TIMEOUT, E_SHUTTING_DOWN, E_INTERNAL, "co\"de😀\n"];
    check(
        "envelope_writer_matches_the_builders",
        &Config::default(),
        case,
        |(id_text, body, message, flags)| {
            let id = if id_text.is_empty() {
                None
            } else {
                Some(Json::parse(id_text).map_err(|e| e.to_string())?)
            };
            let id = id.as_ref();
            let (cached, coalesced) = (flags & 1 != 0, flags & 2 != 0);
            let flight = (flags & 4 != 0).then(|| {
                Json::arr([Json::obj([
                    ("event", Json::str(message.as_str())),
                    ("detail", Json::UInt(*flags)),
                ])])
            });
            let code = CODES[(flags >> 3) as usize % CODES.len()];
            // The flush appends to a buffer that may hold earlier
            // envelopes, possibly ending inside a multi-byte character's
            // neighbourhood.
            let prefix = ["", "{\"ok\":true}\n", "😀"][(flags >> 6) as usize % 3];

            let want = reference_ok(id, cached, coalesced, body);
            let mut buf = prefix.to_string();
            write_ok_envelope(&mut buf, id, cached, coalesced, body).unwrap();
            prop_assert_eq!(&buf[prefix.len()..], want.as_str());
            prop_assert_eq!(ok_envelope_coalesced(id, cached, coalesced, body), want);
            prop_assert_eq!(ok_envelope(id, cached, body), reference_ok(id, cached, false, body));

            let want = reference_err(id, code, message, flight.clone());
            let mut buf = prefix.to_string();
            write_err_envelope(&mut buf, id, code, message, flight.as_ref()).unwrap();
            prop_assert_eq!(&buf[prefix.len()..], want.as_str());
            prop_assert_eq!(err_envelope_with_flight(id, code, message, flight), want);
            prop_assert_eq!(err_envelope(id, code, message), reference_err(id, code, message, None));
            Ok(())
        },
    );
}
