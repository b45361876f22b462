//! A fixed CPU yardstick, read between `paper_mixer` solves.
//!
//! On a shared host the speed a process gets moves with the co-tenants'
//! load: on a 2-vCPU VM, whole 35 s runs of the same solves read up to
//! 1.6× apart, with no steal to show for it (shared cores and caches).
//! The yardstick times three small kernels that share no code with
//! rfsim, so no change to the program moves it:
//!
//! * a dense LU of a 160×160 matrix (floating point, cache-resident),
//! * a sparse matrix-vector product over 60 000 rows (indirect loads
//!   over about 5 MB),
//! * a sort and a hash-map build over 30 000 keys (branches, scalar).
//!
//! One reading is the geometric mean of the three kernel times, each the
//! fastest of three tries, so the cache state a solve leaves behind does
//! not count. Every buffer is allocated once, up front.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Dense LU order.
const DENSE_N: usize = 160;
/// Sparse matrix rows; each row has 7 entries.
const SPARSE_N: usize = 60_000;
/// Keys sorted and hashed.
const KEYS: usize = 30_000;
/// Tries per kernel in one reading.
const TRIES: usize = 3;

pub struct Yardstick {
    dense: Vec<f64>,
    lu: Vec<f64>,
    ptr: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    keys: Vec<u64>,
    sorted: Vec<u64>,
    /// Fixed hash keys, so every run hashes alike.
    map: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>>,
}

impl Yardstick {
    /// Builds the kernels' fixed inputs (the same on every run).
    pub fn new() -> Yardstick {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let dense = (0..DENSE_N * DENSE_N)
            .map(|i| {
                let diagonal = if i % (DENSE_N + 1) == 0 {
                    DENSE_N as f64
                } else {
                    0.0
                };
                (i * 7919 % 1013) as f64 / 1013.0 + diagonal
            })
            .collect();
        let (mut ptr, mut idx, mut val) = (vec![0], Vec::new(), Vec::new());
        for i in 0..SPARSE_N {
            for d in [0usize, 1, 40, 1200] {
                idx.push((i + d) % SPARSE_N);
                val.push(1.0 / (1 + d) as f64);
            }
            for _ in 0..3 {
                idx.push(next() as usize % SPARSE_N);
                val.push(0.01);
            }
            ptr.push(idx.len());
        }
        let keys: Vec<u64> = (0..KEYS).map(|_| next()).collect();
        Yardstick {
            lu: vec![0.0; DENSE_N * DENSE_N],
            dense,
            ptr,
            idx,
            val,
            x: vec![0.0; SPARSE_N],
            y: vec![0.0; SPARSE_N],
            sorted: keys.clone(),
            keys,
            map: HashMap::with_capacity_and_hasher(KEYS, Default::default()),
        }
    }

    /// One reading, in ms.
    pub fn read_ms(&mut self) -> f64 {
        let times = [
            best_of(|| self.dense_lu()),
            best_of(|| self.spmv()),
            best_of(|| self.sort_and_hash()),
        ];
        (times.iter().map(|t| t.ln()).sum::<f64>() / times.len() as f64).exp()
    }

    fn dense_lu(&mut self) -> f64 {
        let (n, a) = (DENSE_N, &mut self.lu);
        a.copy_from_slice(&self.dense);
        for k in 0..n {
            let pivot = a[k * n + k];
            for i in k + 1..n {
                let f = a[i * n + k] / pivot;
                for j in k..n {
                    a[i * n + j] -= f * a[k * n + j];
                }
            }
        }
        a[n * n - 1]
    }

    fn spmv(&mut self) -> f64 {
        self.x.fill(1.0);
        for _ in 0..3 {
            for i in 0..SPARSE_N {
                let row = self.ptr[i]..self.ptr[i + 1];
                self.y[i] = self.val[row.clone()]
                    .iter()
                    .zip(&self.idx[row])
                    .map(|(v, &j)| v * self.x[j])
                    .sum();
            }
            std::mem::swap(&mut self.x, &mut self.y);
        }
        self.x[7]
    }

    fn sort_and_hash(&mut self) -> f64 {
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        self.map.clear();
        for (i, &k) in self.sorted.iter().enumerate() {
            self.map.insert(k, i);
        }
        self.map.len() as f64
    }
}

/// The fastest of [`TRIES`] runs of `kernel`, in ms.
fn best_of(mut kernel: impl FnMut() -> f64) -> f64 {
    (0..TRIES)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(kernel());
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}
