//! Seeded structural fuzzer for the serve request/response codec and
//! the frame transport — the layers that parse bytes from untrusted
//! network clients.
//!
//! Mutation families: truncation at every offset, lying length fields
//! (both the frame prefix and lengths inside bodies), bad protocol
//! versions, oversized frames, raw random bytes, and bit-flipped valid
//! encodings. One oracle holds for every seed:
//!
//! **The codec never panics** — every input decodes to a value or to a
//! typed error. And when a mutant *does* decode, re-encoding it must
//! round-trip (the codec never produces a value it cannot represent).
//!
//! Seeds come from `ROCK_FUZZ_SEEDS` (`"a..b"` range or comma list),
//! defaulting to `0..8` for local runs.

use rock::serve::frame::{read_frame, write_frame, FrameError};
use rock::serve::wire::{JobState, RejectReason, Request, Response};
use rock::trace::splitmix64;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn string(&mut self, max: usize) -> String {
        let len = self.below(max + 1);
        (0..len).map(|_| char::from(b'a' + (self.next() % 26) as u8)).collect()
    }

    fn bytes(&mut self, max: usize) -> Vec<u8> {
        let len = self.below(max + 1);
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// Seeds to sweep: `ROCK_FUZZ_SEEDS="0..64"` or `"1,5,9"`, else `0..8`.
fn seeds() -> Vec<u64> {
    let Ok(spec) = std::env::var("ROCK_FUZZ_SEEDS") else {
        return (0..8).collect();
    };
    if let Some((lo, hi)) = spec.split_once("..") {
        let lo: u64 = lo.trim().parse().expect("bad ROCK_FUZZ_SEEDS lower bound");
        let hi: u64 = hi.trim().parse().expect("bad ROCK_FUZZ_SEEDS upper bound");
        (lo..hi).collect()
    } else {
        spec.split(',').map(|s| s.trim().parse().expect("bad ROCK_FUZZ_SEEDS entry")).collect()
    }
}

/// A random well-formed request, arbitrary field values included
/// (protocol versions deliberately span the full `u16` range: *decoding*
/// a bad version must succeed so the daemon can answer it with a typed
/// protocol error).
fn random_request(rng: &mut Rng) -> Request {
    match rng.below(5) {
        0 => Request::Hello { version: rng.next() as u16, client: rng.string(24) },
        1 => {
            Request::Submit { name: rng.string(24), deadline_ms: rng.next(), image: rng.bytes(200) }
        }
        2 => Request::Status { job: rng.next() },
        3 => Request::Cancel { job: rng.next() },
        _ => Request::Drain,
    }
}

fn random_state(rng: &mut Rng) -> JobState {
    match rng.below(5) {
        0 => JobState::Unknown,
        1 => JobState::Queued { position: rng.next() },
        2 => JobState::Running,
        3 => JobState::Done {
            exit_code: rng.next() as u8,
            outcome: rng.string(12),
            result_fp: rng.next(),
            report_json: rng.string(64),
        },
        _ => JobState::Cancelled,
    }
}

fn random_response(rng: &mut Rng) -> Response {
    match rng.below(6) {
        0 => Response::HelloOk { version: rng.next() as u16 },
        1 => Response::Accepted { job: rng.next() },
        2 => Response::Rejected {
            reason: RejectReason::ALL[rng.below(RejectReason::ALL.len())],
            detail: rng.string(48),
        },
        3 => Response::JobStatus { job: rng.next(), state: random_state(rng) },
        4 => Response::DrainStarted { queued: rng.next(), running: rng.next() },
        _ => Response::ProtocolError { message: rng.string(48) },
    }
}

// ---------------------------------------------------------------------
// Mutation family 1: truncation at every offset
// ---------------------------------------------------------------------

#[test]
fn truncated_bodies_always_error_never_panic() {
    for seed in seeds() {
        let mut rng = Rng(seed ^ 0x7472_756e); // "trun"
        let request = random_request(&mut rng).encode();
        let response = random_response(&mut rng).encode();
        // Every field is either fixed-width or carries an explicit
        // length, so a strict prefix always leaves some field short:
        // truncation is a typed error at *every* cut, for both codecs.
        for cut in 0..request.len() {
            assert!(Request::decode(&request[..cut]).is_err(), "seed {seed}: request cut {cut}");
        }
        for cut in 0..response.len() {
            assert!(Response::decode(&response[..cut]).is_err(), "seed {seed}: response cut {cut}");
        }
    }
}

// ---------------------------------------------------------------------
// Mutation family 2: lying length fields
// ---------------------------------------------------------------------

#[test]
fn lying_inner_lengths_error_or_reinterpret_but_never_panic() {
    for seed in seeds() {
        let mut rng = Rng(seed ^ 0x6c69_6573); // "lies"
        let body = random_request(&mut rng).encode();
        if body.len() < 5 {
            continue;
        }
        // Stomp a 4-byte window anywhere in the body with hostile
        // lengths; a huge claimed length must become a typed error, not
        // an allocation or a panic.
        for lie in [u32::MAX, u32::MAX / 2, 1 << 30, rng.next() as u32] {
            let at = 1 + rng.below(body.len() - 4);
            let mut mutant = body.clone();
            mutant[at..at + 4].copy_from_slice(&lie.to_le_bytes());
            let _ = Request::decode(&mutant);
            let _ = Response::decode(&mutant);
        }
    }
}

#[test]
fn lying_frame_prefixes_are_capped_before_allocation() {
    for seed in seeds() {
        let mut rng = Rng(seed ^ 0x6672_616d); // "fram"
        let cap = 1 + rng.below(1 << 16);
        let claimed = cap + 1 + rng.below(1 << 20);
        let mut stream = Vec::new();
        stream.extend_from_slice(&(claimed as u32).to_le_bytes());
        // No body bytes at all: the cap must trip on the prefix alone.
        let err = read_frame(&mut std::io::Cursor::new(&stream), cap).unwrap_err();
        match err {
            FrameError::TooLarge { claimed: c, max } => {
                assert_eq!((c, max), (claimed, cap), "seed {seed}");
            }
            other => panic!("seed {seed}: expected TooLarge, got {other}"),
        }
    }
}

// ---------------------------------------------------------------------
// Mutation family 3: raw random bytes
// ---------------------------------------------------------------------

#[test]
fn random_bytes_never_panic_the_codec() {
    for seed in seeds() {
        let mut rng = Rng(seed ^ 0x7261_6e64); // "rand"
        for _ in 0..64 {
            let junk = rng.bytes(512);
            let _ = Request::decode(&junk);
            let _ = Response::decode(&junk);
        }
    }
}

// ---------------------------------------------------------------------
// Mutation family 4: bit-flipped valid encodings
// ---------------------------------------------------------------------

#[test]
fn bitflipped_encodings_decode_to_roundtrippable_values_or_error() {
    for seed in seeds() {
        let mut rng = Rng(seed ^ 0x666c_6970); // "flip"
        for _ in 0..32 {
            let original = random_request(&mut rng).encode();
            let mut mutant = original.clone();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(mutant.len());
                mutant[at] ^= 1 << rng.below(8);
            }
            if let Ok(decoded) = Request::decode(&mutant) {
                let re = decoded.encode();
                assert_eq!(
                    Request::decode(&re).expect("re-encode of a decoded value must decode"),
                    decoded,
                    "seed {seed}: decode/encode not a fixpoint"
                );
            }
            let original = random_response(&mut rng).encode();
            let mut mutant = original.clone();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(mutant.len());
                mutant[at] ^= 1 << rng.below(8);
            }
            if let Ok(decoded) = Response::decode(&mutant) {
                let re = decoded.encode();
                assert_eq!(
                    Response::decode(&re).expect("re-encode of a decoded value must decode"),
                    decoded,
                    "seed {seed}: decode/encode not a fixpoint"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Transport round-trip: random frame sequences survive the reader
// ---------------------------------------------------------------------

#[test]
fn random_frame_sequences_roundtrip_through_the_transport() {
    for seed in seeds() {
        let mut rng = Rng(seed ^ 0x7365_7175); // "sequ"
        let requests: Vec<Request> =
            (0..1 + rng.below(8)).map(|_| random_request(&mut rng)).collect();
        let mut stream = Vec::new();
        for r in &requests {
            write_frame(&mut stream, &r.encode()).unwrap();
        }
        let mut cursor = std::io::Cursor::new(&stream);
        for (i, expected) in requests.iter().enumerate() {
            let body = read_frame(&mut cursor, 1 << 20)
                .unwrap_or_else(|e| panic!("seed {seed}: frame {i}: {e}"));
            assert_eq!(&Request::decode(&body).unwrap(), expected, "seed {seed}: frame {i}");
        }
        assert!(
            matches!(read_frame(&mut cursor, 1 << 20), Err(FrameError::Closed)),
            "seed {seed}: clean EOF after the last frame"
        );
    }
}
