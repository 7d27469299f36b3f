//! Approximate minimum degree (AMD) column ordering for the symbolic phase
//! of [`crate::sparse_lu::SparseLu`].
//!
//! Orders the unknowns of a square sparse matrix so that eliminating them
//! in that order on the pattern of `A + Aᵀ` creates little fill. The
//! elimination is simulated on a quotient graph (Amestoy, Davis & Duff,
//! SIAM J. Matrix Anal. Appl. 17(4), 1996): an eliminated pivot becomes an
//! *element* that stands for the clique its elimination would create, so
//! the graph never grows past the original pattern. A variable's degree is
//! the AMD upper bound built from element set differences rather than an
//! exact count, and degrees live in buckets, so choosing the next pivot
//! never scans the remaining vertices. Dense rows (degree above `10·√n`,
//! AMD's default) are set aside up front and ordered last.
//!
//! The result depends only on the sparsity pattern and is deterministic.

use crate::sparse::CscMatrix;

/// Empty-slot marker for the bucket lists and the set-difference cache.
const NONE: usize = usize::MAX;

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    /// Not yet eliminated.
    Var,
    /// Eliminated; its clique is live.
    Elem,
    /// Eliminated; its clique was absorbed into a later element.
    Absorbed,
    /// Dense row, ordered after everything else.
    Dense,
}

/// Doubly linked degree buckets: `head[d]` starts the list of variables of
/// approximate degree `d`.
struct Buckets {
    head: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
}

impl Buckets {
    fn new(n: usize) -> Self {
        Self {
            head: vec![NONE; n.max(1)],
            next: vec![NONE; n],
            prev: vec![NONE; n],
        }
    }

    fn insert(&mut self, i: usize, d: usize) {
        let h = self.head[d];
        self.next[i] = h;
        self.prev[i] = NONE;
        if h != NONE {
            self.prev[h] = i;
        }
        self.head[d] = i;
    }

    fn remove(&mut self, i: usize, d: usize) {
        let (p, nx) = (self.prev[i], self.next[i]);
        if p == NONE {
            self.head[d] = nx;
        } else {
            self.next[p] = nx;
        }
        if nx != NONE {
            self.prev[nx] = p;
        }
    }
}

/// Fill-reducing elimination order of `a`'s columns: `q[k]` is the column
/// (and preferred pivot row) eliminated at step k. `a` must be square.
pub(crate) fn amd_order(a: &CscMatrix) -> Vec<usize> {
    let n = a.n_cols();
    // Symmetric adjacency of A + Aᵀ, diagonal dropped.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let (col_ptr, row_idx) = (a.col_ptr(), a.row_idx());
    for j in 0..n {
        for &i in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    let dense_min = ((10.0 * (n as f64).sqrt()) as usize).max(16);
    let mut state: Vec<State> = adj
        .iter_mut()
        .map(|l| {
            l.sort_unstable();
            l.dedup();
            if l.len() > dense_min {
                State::Dense
            } else {
                State::Var
            }
        })
        .collect();
    let n_live = state.iter().filter(|&&s| s == State::Var).count();
    if n_live < n {
        for l in &mut adj {
            l.retain(|&v| state[v] == State::Var);
        }
    }

    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut buckets = Buckets::new(n);
    // Reverse insertion so equal-degree ties pop in ascending index order.
    for i in (0..n).rev() {
        if state[i] == State::Var {
            buckets.insert(i, degree[i]);
        }
    }

    // elems[i]: elements adjacent to variable i. le[e]: variables of
    // element e. Invariant: for a live element e, v ∈ le[e] ⇔ e ∈ elems[v],
    // and every v ∈ le[e] is still a variable.
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut le: Vec<Vec<usize>> = vec![Vec::new(); n];
    // mark[v] == stamp ⇔ v ∈ Lp ∪ {p} for the current pivot p.
    let mut mark = vec![0usize; n];
    // w[e] = |le[e] \ Lp| while the current pivot's degrees are updated.
    let mut w = vec![NONE; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut order = Vec::with_capacity(n);
    let mut mindeg = 0;

    for stamp in 1..=n_live {
        while buckets.head[mindeg] == NONE {
            mindeg += 1;
        }
        let p = buckets.head[mindeg];
        buckets.remove(p, mindeg);
        mark[p] = stamp;

        // Lp: p's variable neighbours plus the variables of every element
        // adjacent to p; those elements are absorbed into the new one.
        let mut lp: Vec<usize> = Vec::new();
        for &v in &adj[p] {
            if mark[v] != stamp {
                mark[v] = stamp;
                lp.push(v);
            }
        }
        for &e in &elems[p] {
            if state[e] != State::Elem {
                continue;
            }
            for &v in &le[e] {
                if mark[v] != stamp {
                    mark[v] = stamp;
                    lp.push(v);
                }
            }
            state[e] = State::Absorbed;
            le[e] = Vec::new();
        }
        state[p] = State::Elem;
        order.push(p);
        adj[p] = Vec::new();
        elems[p] = Vec::new();

        for &i in &lp {
            buckets.remove(i, degree[i]);
            for &e in &elems[i] {
                if state[e] == State::Elem {
                    if w[e] == NONE {
                        w[e] = le[e].len();
                        touched.push(e);
                    }
                    w[e] -= 1;
                }
            }
        }

        // Approximate external degree of each i ∈ Lp:
        // min(remaining - 1, d_old + |Lp\i|, |A_i| + |Lp\i| + Σ |Le \ Lp|).
        let remaining = n_live - order.len();
        let lp_ext = lp.len().saturating_sub(1);
        for &i in &lp {
            let mut elem_deg = 0;
            elems[i].retain(|&e| {
                if state[e] != State::Elem {
                    return false;
                }
                if w[e] == 0 {
                    // le[e] ⊆ Lp: the new element covers it (aggressive
                    // absorption).
                    state[e] = State::Absorbed;
                    return false;
                }
                elem_deg += w[e];
                true
            });
            elems[i].push(p);
            // Edges inside Lp ∪ {p} are now implied by element p.
            adj[i].retain(|&v| mark[v] != stamp);
            let d = (adj[i].len() + lp_ext + elem_deg)
                .min(degree[i] + lp_ext)
                .min(remaining - 1);
            degree[i] = d;
            buckets.insert(i, d);
            mindeg = mindeg.min(d);
        }
        for e in touched.drain(..) {
            w[e] = NONE;
            if state[e] == State::Absorbed {
                le[e] = Vec::new();
            }
        }
        le[p] = lp;
    }

    order.extend((0..n).filter(|&i| state[i] == State::Dense));
    order
}

/// Whether `q` is a permutation of `0..n`.
pub(crate) fn is_permutation(q: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    q.len() == n
        && q.iter()
            .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    fn pattern(n: usize, entries: &[(usize, usize)]) -> CscMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.add(i, i, 1.0);
        }
        for &(i, j) in entries {
            t.add(i, j, 1.0);
        }
        t.to_csc().unwrap().0
    }

    #[test]
    fn arrow_hub_waits_for_its_leaves() {
        // Vertex 0 couples to every other vertex; eliminating it before
        // its last two leaves would fill the whole matrix.
        let n = 12;
        let edges: Vec<(usize, usize)> = (1..n).flat_map(|i| [(0, i), (i, 0)]).collect();
        let q = amd_order(&pattern(n, &edges));
        assert!(is_permutation(&q, n));
        assert!(q[..n - 2].iter().all(|&v| v != 0), "{q:?}");
    }

    #[test]
    fn dense_rows_are_set_aside_and_placed_last() {
        let n = 400; // dense threshold 10·√400 = 200
        let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (7, i)).collect();
        edges.extend((0..n - 1).filter(|&i| i != 7).map(|i| (i, i + 1)));
        let q = amd_order(&pattern(n, &edges));
        assert!(is_permutation(&q, n));
        assert_eq!(*q.last().unwrap(), 7);
    }

    #[test]
    fn empty_and_diagonal_patterns() {
        assert!(amd_order(&pattern(1, &[])) == vec![0]);
        let q = amd_order(&pattern(5, &[]));
        assert_eq!(q, vec![0, 1, 2, 3, 4]);
    }
}
