//! The optimizer's output, pinned to the byte.
//!
//! XOR counts (389, 693, 1368 …) pin the *size* of the programs the
//! default pipeline emits; these digests pin the programs themselves, so a
//! change that is meant to leave them alone (a faster compressor, a
//! refactored scheduler) can prove it did, and a change that is meant to
//! improve them has to say so by updating a constant.
//!
//! Each digest is FNV-1a (64-bit) over `format!("{slp}")` of every program
//! in the group, in the order listed, each followed by a NUL byte; a
//! pattern with no program (parity-only loss) contributes the text `none`.
//!
//! The constants were generated by running this test body at commit
//! f9f4c71 (PR 18, the last commit with the from-scratch XorRePair).

use xorslp_ec::{ArrayCodec, EcError, LrcCodec, RsCodec, RsConfig, XorCodec};

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn program(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(&[0]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn encode_digest(codec: &XorCodec) -> u64 {
    let mut h = Fnv1a::new();
    h.program(&codec.encode_slp().to_string());
    h.0
}

fn update_digest(codec: &XorCodec) -> u64 {
    let mut h = Fnv1a::new();
    for shard in 0..codec.data_shards() {
        h.program(&codec.update_slp(shard).unwrap().to_string());
    }
    h.0
}

/// Every double erasure `{a, b}`, `a < b`, in lexicographic order.
fn double_erasure_digest(codec: &XorCodec) -> u64 {
    let mut h = Fnv1a::new();
    let total = codec.total_shards();
    for a in 0..total {
        for b in a + 1..total {
            match codec.decode_slp(&[a, b]) {
                Ok(slp) => h.program(&slp.to_string()),
                Err(EcError::NoDataLost) => h.program("none"),
                Err(e) => panic!("decode_slp([{a}, {b}]): {e}"),
            }
        }
    }
    h.0
}

#[test]
fn default_pipeline_programs_are_byte_identical_to_pr_18() {
    let rs = RsCodec::new(10, 4).unwrap();
    let evenodd = ArrayCodec::evenodd(5);
    let rdp = ArrayCodec::rdp(5);
    let lrc = LrcCodec::with_config(RsConfig::new(12, 4), 6).unwrap();

    let got = [
        ("rs(10,4) encode", encode_digest(&rs)),
        ("rs(10,4) 10 update columns", update_digest(&rs)),
        ("rs(10,4) 91 double erasures", double_erasure_digest(&rs)),
        ("evenodd(5) encode", encode_digest(&evenodd)),
        (
            "evenodd(5) 21 double erasures",
            double_erasure_digest(&evenodd),
        ),
        ("rdp(5) encode", encode_digest(&rdp)),
        ("rdp(5) 21 double erasures", double_erasure_digest(&rdp)),
        ("lrc(12,4,r=6) encode", encode_digest(&lrc)),
    ];
    let want: [(&str, u64); 8] = [
        ("rs(10,4) encode", 0x211a_76a4_3a36_ffaf),
        ("rs(10,4) 10 update columns", 0xab84_6a04_8a8a_cbf1),
        ("rs(10,4) 91 double erasures", 0x5baa_2773_92f0_dbec),
        ("evenodd(5) encode", 0x69d8_9a64_dfc8_81ea),
        ("evenodd(5) 21 double erasures", 0xbcd4_be5d_0fa7_9ef9),
        ("rdp(5) encode", 0x6be6_892c_1e2d_fe15),
        ("rdp(5) 21 double erasures", 0xf9ed_6c98_3900_6294),
        ("lrc(12,4,r=6) encode", 0xb18c_bc70_7fba_cf97),
    ];
    let render = |table: &[(&str, u64)]| -> String {
        table
            .iter()
            .map(|(name, d)| format!("        (\"{name}\", {d:#018x}),\n"))
            .collect()
    };
    assert!(got == want, "computed digests:\n{}", render(&got));
}
