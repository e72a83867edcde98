//! The table-driven RS codec: byte-oriented encode/decode via GF
//! dot products, structured like ISA-L's `ec_encode_data`.

use crate::mul::{dot_product, DotTables, GfBackend};
use gf256::{encoding_matrix, Gf, GfMatrix, MatrixKind};
use std::fmt;

/// Errors of the baseline codec (kept separate from `ec-core`'s so the
/// crates stay independent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineError {
    /// Invalid parameters.
    InvalidParams(String),
    /// Bad shard counts or lengths.
    Shards(String),
    /// Too many erasures for the parity count.
    TooManyErasures { missing: usize, parity: usize },
    /// Non-invertible survivor submatrix.
    SingularPattern { lost: Vec<usize> },
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::InvalidParams(m) => write!(f, "invalid parameters: {m}"),
            BaselineError::Shards(m) => write!(f, "bad shards: {m}"),
            BaselineError::TooManyErasures { missing, parity } => {
                write!(f, "{missing} missing > {parity} parity")
            }
            BaselineError::SingularPattern { lost } => {
                write!(f, "singular erasure pattern {lost:?}")
            }
        }
    }
}

impl std::error::Error for BaselineError {}

/// A byte-oriented systematic RS(n, p) codec over GF(2^8) product tables.
pub struct GfRsCodec {
    n: usize,
    p: usize,
    backend: GfBackend,
    matrix: GfMatrix,
    /// Precomputed nibble tables for the parity rows (ISA-L's
    /// `ec_init_tables`).
    enc_tables: DotTables,
}

impl GfRsCodec {
    /// Codec with the default (ISA-L power) matrix and auto backend.
    pub fn new(n: usize, p: usize) -> Result<GfRsCodec, BaselineError> {
        GfRsCodec::with_options(n, p, MatrixKind::IsalPower, GfBackend::Auto)
    }

    /// Codec with explicit matrix kind and multiplication backend.
    pub fn with_options(
        n: usize,
        p: usize,
        kind: MatrixKind,
        backend: GfBackend,
    ) -> Result<GfRsCodec, BaselineError> {
        if n == 0 || p == 0 {
            return Err(BaselineError::InvalidParams(
                "need at least one data and one parity shard".into(),
            ));
        }
        if n + p > 255 {
            return Err(BaselineError::InvalidParams("n + p exceeds 255".into()));
        }
        let matrix = encoding_matrix(kind, n, p);
        let coeffs = (n..n + p).flat_map(|r| matrix.row(r).to_vec());
        let enc_tables = DotTables::new(p, n, coeffs);
        Ok(GfRsCodec {
            n,
            p,
            backend: backend.resolve(),
            matrix,
            enc_tables,
        })
    }

    /// Number of data shards.
    pub fn data_shards(&self) -> usize {
        self.n
    }

    /// Number of parity shards.
    pub fn parity_shards(&self) -> usize {
        self.p
    }

    /// The coding matrix.
    pub fn encode_matrix(&self) -> &GfMatrix {
        &self.matrix
    }

    /// Dot-product `outputs[r] = Σ_i rows[r][i] · inputs[i]` over byte
    /// slices — the core of both encode and decode, using the fused
    /// source-major kernel (ISA-L's `gf_vect_dot_prod` shape).
    fn dot_products(&self, rows: &[&[Gf]], inputs: &[&[u8]], outputs: &mut [&mut [u8]]) {
        let coeffs = rows.iter().flat_map(|r| r.iter().copied());
        let tables = DotTables::new(rows.len(), inputs.len(), coeffs);
        dot_product(self.backend, &tables, inputs, outputs);
    }

    /// Compute all parity shards (zero-copy).
    pub fn encode_parity(
        &self,
        data: &[&[u8]],
        parity: &mut [&mut [u8]],
    ) -> Result<(), BaselineError> {
        if data.len() != self.n || parity.len() != self.p {
            return Err(BaselineError::Shards(format!(
                "expected {} data and {} parity shards",
                self.n, self.p
            )));
        }
        let len = data[0].len();
        if data.iter().any(|s| s.len() != len) || parity.iter().any(|s| s.len() != len) {
            return Err(BaselineError::Shards("shard lengths differ".into()));
        }
        dot_product(self.backend, &self.enc_tables, data, parity);
        Ok(())
    }

    /// Encode a buffer into `n + p` shards (padding the tail).
    pub fn encode(&self, data: &[u8]) -> Result<Vec<Vec<u8>>, BaselineError> {
        let shard_len = data.len().div_ceil(self.n);
        let mut shards = vec![vec![0u8; shard_len]; self.n + self.p];
        for (i, shard) in shards.iter_mut().take(self.n).enumerate() {
            let lo = (i * shard_len).min(data.len());
            let hi = ((i + 1) * shard_len).min(data.len());
            shard[..hi - lo].copy_from_slice(&data[lo..hi]);
        }
        if shard_len > 0 {
            let (d, q) = shards.split_at_mut(self.n);
            let data_refs: Vec<&[u8]> = d.iter().map(Vec::as_slice).collect();
            let mut parity_refs: Vec<&mut [u8]> = q.iter_mut().map(Vec::as_mut_slice).collect();
            self.encode_parity(&data_refs, &mut parity_refs)?;
        }
        Ok(shards)
    }

    /// Recover the original buffer from any `n` surviving shards.
    pub fn decode(
        &self,
        shards: &[Option<Vec<u8>>],
        data_len: usize,
    ) -> Result<Vec<u8>, BaselineError> {
        let total = self.n + self.p;
        if shards.len() != total {
            return Err(BaselineError::Shards(format!("expected {total} shards")));
        }
        let missing: Vec<usize> = (0..total).filter(|&i| shards[i].is_none()).collect();
        if missing.len() > self.p {
            return Err(BaselineError::TooManyErasures {
                missing: missing.len(),
                parity: self.p,
            });
        }
        let Some(len) = shards.iter().flatten().map(Vec::len).next() else {
            return Err(BaselineError::Shards("no shards present".into()));
        };
        if shards.iter().flatten().any(|s| s.len() != len) {
            return Err(BaselineError::Shards("shard lengths differ".into()));
        }

        let lost_data: Vec<usize> = missing.iter().copied().filter(|&i| i < self.n).collect();
        let mut rebuilt: Vec<Vec<u8>> = Vec::new();
        if !lost_data.is_empty() && len > 0 {
            let survivors: Vec<usize> = (0..total)
                .filter(|i| !missing.contains(i))
                .take(self.n)
                .collect();
            let sub = self.matrix.select_rows(&survivors);
            let inv = sub.invert().ok_or_else(|| BaselineError::SingularPattern {
                lost: missing.clone(),
            })?;
            let rec = inv.select_rows(&lost_data);
            let inputs: Vec<&[u8]> = survivors
                .iter()
                .map(|&i| shards[i].as_deref().expect("survivor present"))
                .collect();
            rebuilt = vec![vec![0u8; len]; lost_data.len()];
            let rows: Vec<&[Gf]> = (0..lost_data.len()).map(|r| rec.row(r)).collect();
            let mut outs: Vec<&mut [u8]> = rebuilt.iter_mut().map(Vec::as_mut_slice).collect();
            self.dot_products(&rows, &inputs, &mut outs);
        } else if !lost_data.is_empty() {
            rebuilt = vec![vec![0u8; len]; lost_data.len()];
        }

        let mut out = Vec::with_capacity(self.n * len);
        let mut it = rebuilt.into_iter();
        for shard in &shards[..self.n] {
            match shard {
                Some(s) => out.extend_from_slice(s),
                None => out.extend_from_slice(&it.next().expect("rebuilt")),
            }
        }
        out.truncate(data_len);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 89 + 7) as u8).collect()
    }

    #[test]
    fn parity_matches_symbolwise_field_arithmetic() {
        // Oracle: parity byte t = Σ_i V[r][i] · data_i[t].
        let codec = GfRsCodec::new(4, 3).unwrap();
        let data: Vec<Vec<u8>> = (0..4)
            .map(|i| sample(50 + i))
            .map(|mut v| {
                v.truncate(50);
                v
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut parity = vec![vec![0u8; 50]; 3];
        {
            let mut p: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
            codec.encode_parity(&refs, &mut p).unwrap();
        }
        let m = codec.encode_matrix();
        for r in 0..3 {
            for t in 0..50 {
                let expect: Gf = (0..4)
                    .map(|i| m[(4 + r, i)] * Gf(data[i][t]))
                    .fold(Gf::ZERO, |a, b| a + b);
                assert_eq!(parity[r][t], expect.0, "r={r} t={t}");
            }
        }
    }

    #[test]
    fn roundtrip_every_double_erasure() {
        let codec = GfRsCodec::new(4, 2).unwrap();
        let data = sample(4 * 33 + 5);
        let shards = codec.encode(&data).unwrap();
        for a in 0..6 {
            for b in a + 1..6 {
                let mut rx: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
                rx[a] = None;
                rx[b] = None;
                assert_eq!(codec.decode(&rx, data.len()).unwrap(), data, "{a},{b}");
            }
        }
    }

    #[test]
    fn rs_10_4_roundtrip_under_max_loss() {
        let codec = GfRsCodec::new(10, 4).unwrap();
        let data = sample(10 * 97);
        let shards = codec.encode(&data).unwrap();
        let mut rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        for i in [2, 4, 5, 6] {
            rx[i] = None;
        }
        assert_eq!(codec.decode(&rx, data.len()).unwrap(), data);
    }

    #[test]
    fn backends_produce_identical_parity() {
        let data = sample(8 * 200);
        let t = GfRsCodec::with_options(8, 4, MatrixKind::IsalPower, GfBackend::Table).unwrap();
        let expect = t.encode(&data).unwrap();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let a = GfRsCodec::with_options(8, 4, MatrixKind::IsalPower, GfBackend::Avx2).unwrap();
            assert_eq!(a.encode(&data).unwrap(), expect);
        }
        let c = GfRsCodec::with_options(8, 4, MatrixKind::Cauchy, GfBackend::Table).unwrap();
        assert_ne!(
            c.encode(&data).unwrap(),
            expect,
            "different matrix, different code"
        );
    }

    #[test]
    fn error_paths() {
        assert!(GfRsCodec::new(0, 1).is_err());
        let codec = GfRsCodec::new(2, 1).unwrap();
        let data = sample(10);
        let shards = codec.encode(&data).unwrap();
        let mut rx: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        rx[0] = None;
        rx[1] = None;
        assert!(matches!(
            codec.decode(&rx, data.len()),
            Err(BaselineError::TooManyErasures { .. })
        ));
    }
}
