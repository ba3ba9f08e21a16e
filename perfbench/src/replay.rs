//! Outside-in layer costs by replay: the benchmark regenerates a
//! program's input tiles with `Generator::generate`, re-runs its tile
//! products with the public kernels, and pushes its output tiles through
//! the public codecs, each timed on its own.

use cumulon::matrix::{compress, serialize, DenseTile, LocalMatrix, Tile, TileData};

use crate::batch::{Batch, Which};
use crate::util::{par_map, timed};

/// A tile reference: (matrix, tile row, tile column).
type At = (usize, usize, usize);

/// A program's input tiles and the tile products its tasks perform,
/// grouped by the output tile they accumulate into.
pub struct Replay {
    mats: Vec<Vec<Vec<Tile>>>,
    groups: Vec<Vec<(At, At)>>,
    /// Seconds `Generator::generate` took for every input tile.
    pub gen_s: f64,
    /// Flops of one pass over `groups`.
    pub flops: f64,
}

impl Replay {
    /// Generates every input tile on `threads` threads and lists the
    /// program's products. The first GNMF iteration's products stand for
    /// every iteration: the shapes repeat and so does the work.
    pub fn new(batch: &Batch, threads: usize) -> Replay {
        let inputs = batch.inputs();
        let jobs: Vec<(usize, usize, usize)> = inputs
            .iter()
            .enumerate()
            .flat_map(|(k, (_, meta, _))| meta.grid().iter().map(move |(ti, tj)| (k, ti, tj)))
            .collect();
        let (tiles, gen_s) = timed(|| {
            par_map(&jobs, threads, |&(k, ti, tj)| {
                inputs[k].2.generate(&inputs[k].1, ti, tj)
            })
        });
        let mut it = tiles.into_iter();
        let mut mats: Vec<Vec<Vec<Tile>>> = inputs
            .iter()
            .map(|(_, meta, _)| {
                let g = meta.grid();
                (0..g.tile_rows)
                    .map(|_| {
                        (0..g.tile_cols)
                            .map(|_| it.next().expect("one tile per job"))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let transpose = |mats: &mut Vec<Vec<Vec<Tile>>>, id: usize| {
            let t = &mats[id];
            let tt = (0..t[0].len())
                .map(|j| (0..t.len()).map(|i| t[i][j].transpose()).collect())
                .collect();
            mats.push(tt);
            mats.len() - 1
        };
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        match batch.which {
            Which::Gram => {
                let at = transpose(&mut mats, 0);
                pairs.push((at, 0));
            }
            Which::Fan => pairs.push((0, 1)),
            Which::Gnmf => {
                // Inputs are V, W_0, H_0; the r x r products WᵀW and HHᵀ
                // enter the second products as one dense tile.
                let (v, w, h) = (0, 1, 2);
                let wt = transpose(&mut mats, w);
                let ht = transpose(&mut mats, h);
                let r = batch.rank();
                mats.push(vec![vec![Tile::dense(DenseTile::zeros(r, r))]]);
                let rr = mats.len() - 1;
                for _ in 0..batch.iters() {
                    pairs.extend([(wt, v), (wt, w), (rr, h), (v, ht), (h, ht), (w, rr)]);
                }
            }
        }
        let mut groups = Vec::new();
        for (a, b) in pairs {
            let (ga, gb) = (&mats[a], &mats[b]);
            for i in 0..ga.len() {
                for j in 0..gb[0].len() {
                    groups.push(
                        (0..gb.len())
                            .map(|k| ((a, i, k), (b, k, j)))
                            .collect::<Vec<_>>(),
                    );
                }
            }
        }
        let mut replay = Replay {
            mats,
            groups,
            gen_s,
            flops: 0.0,
        };
        replay.flops = replay
            .groups
            .iter()
            .flatten()
            .map(|&(a, b)| product_flops(replay.tile(a), replay.tile(b)))
            .sum();
        replay
    }

    fn tile(&self, (m, i, j): At) -> &Tile {
        &self.mats[m][i][j]
    }

    /// Seconds the products take on `threads` threads, one output tile
    /// per work item.
    pub fn kernels(&self, threads: usize) -> f64 {
        let (sums, secs) = timed(|| {
            par_map(&self.groups, threads, |group| {
                let (a0, b0) = group[0];
                let mut c = DenseTile::zeros(self.tile(a0).rows(), self.tile(b0).cols());
                for &(a, b) in group {
                    mul_acc(&mut c, self.tile(a), self.tile(b));
                }
                c.data().iter().sum::<f64>()
            })
        });
        std::hint::black_box(sums);
        secs
    }
}

fn mul_acc(c: &mut DenseTile, a: &Tile, b: &Tile) {
    match (a.payload(), b.payload()) {
        (TileData::Sparse(s), TileData::Dense(d)) => s.spmm_acc(c, d),
        (TileData::Dense(d), TileData::Sparse(s)) => s.gemm_ds_acc(c, d),
        (TileData::Dense(x), TileData::Dense(y)) => DenseTile::gemm_acc(c, x, y),
        _ => panic!("replay multiplies generated dense or sparse tiles only"),
    }
    .expect("replayed tile product has matching shapes");
}

fn product_flops(a: &Tile, b: &Tile) -> f64 {
    match (a.payload(), b.payload()) {
        (TileData::Sparse(_), _) => 2.0 * a.nnz() as f64 * b.cols() as f64,
        (_, TileData::Sparse(_)) => 2.0 * b.nnz() as f64 * a.rows() as f64,
        _ => 2.0 * (a.rows() * a.cols() * b.cols()) as f64,
    }
}

/// Seconds per wire byte of each codec step, measured on real tiles.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecRates {
    pub encode: f64,
    pub decode: f64,
    pub compress: f64,
    pub decompress: f64,
    /// Raw bytes over stored bytes after `maybe_compress`.
    pub ratio: f64,
}

/// Pushes every tile of `matrices` through `encode_tile`,
/// `maybe_compress`, `decompress` and `decode_tile`, one step at a time.
pub fn codec_rates(matrices: &[LocalMatrix]) -> CodecRates {
    let tiles: Vec<&Tile> = matrices
        .iter()
        .flat_map(|m| m.iter_tiles().map(|(_, t)| t))
        .collect();
    let (encoded, encode_s) = timed(|| {
        tiles
            .iter()
            .map(|t| serialize::encode_tile(t))
            .collect::<Vec<_>>()
    });
    let wire: usize = encoded.iter().map(|b| b.len()).sum();
    let (packed, compress_s) = timed(|| {
        encoded
            .iter()
            .map(|b| compress::maybe_compress(b))
            .collect::<Vec<_>>()
    });
    let stored: usize = packed.iter().map(|(_, p)| p.len()).sum();
    let (raw, decompress_s) = timed(|| {
        packed
            .iter()
            .map(|(codec, p)| {
                compress::decompress(*codec, p).expect("round trip of a fresh payload")
            })
            .collect::<Vec<_>>()
    });
    let (decoded, decode_s) = timed(|| {
        encoded
            .iter()
            .map(|b| serialize::decode_tile(b.clone()).expect("round trip of a fresh payload"))
            .collect::<Vec<_>>()
    });
    std::hint::black_box((raw, decoded));
    let per = |s: f64| s / wire.max(1) as f64;
    CodecRates {
        encode: per(encode_s),
        decode: per(decode_s),
        compress: per(compress_s),
        decompress: per(decompress_s),
        ratio: wire as f64 / stored.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnmf_replay_lists_six_products_per_iteration() {
        let b = Batch::new(Which::Gnmf, 3, true).unwrap();
        let r = Replay::new(&b, 2);
        assert!(r.flops > 0.0);
        assert!(r.kernels(2) > 0.0);
    }
}
