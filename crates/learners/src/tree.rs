//! The regression tree used inside gradient boosting.
//!
//! Implements XGBoost's exact greedy algorithm: at every node, each feature's
//! values are scanned once in sorted order, accumulating gradient/hessian
//! sums to score candidate splits with the second-order gain
//!
//! ```text
//! gain = ½ [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ
//! ```
//!
//! Leaf weights are `−G/(H+λ)`; shrinkage is applied by the ensemble.
//!
//! Features are sorted once (a `FeatureOrder`, shared by every tree of
//! an ensemble), not once per node: each split stably partitions its
//! per-feature sorted row lists into the children's, which is exactly the
//! order a stable per-node sort of the children's rows would give (by
//! value, ties in ascending row order), so every node scans the same
//! sequence and picks the same split.

use cf_linalg::Matrix;

/// Split-search hyperparameters (a subset of [`crate::GbtConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth (0 = a single leaf).
    pub max_depth: usize,
    /// L2 regularisation `λ` on leaf weights.
    pub lambda: f64,
    /// Minimum gain `γ` required to keep a split.
    pub gamma: f64,
    /// Minimum hessian sum per child (`min_child_weight`).
    pub min_child_weight: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 4,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
        }
    }
}

#[derive(Debug, Clone)]
enum TreeNode {
    Leaf {
        weight: f64,
    },
    Split {
        feature: usize,
        /// Go left when `x[feature] < threshold`.
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree mapping feature rows to leaf weights.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<TreeNode>,
    root: usize,
}

impl RegressionTree {
    /// Fit to gradients/hessians on the given rows of `x`.
    ///
    /// # Panics
    /// Panics if buffer lengths disagree (callers validate upstream).
    pub fn fit(x: &Matrix, grad: &[f64], hess: &[f64], params: &TreeParams) -> Self {
        Self::fit_presorted(&FeatureOrder::new(x), grad, hess, params)
    }

    /// [`Self::fit`] on rows whose features are already sorted.
    ///
    /// # Panics
    /// Panics if buffer lengths disagree with the order's row count.
    pub(crate) fn fit_presorted(
        order: &FeatureOrder,
        grad: &[f64],
        hess: &[f64],
        params: &TreeParams,
    ) -> Self {
        assert_eq!(order.n, grad.len());
        assert_eq!(order.n, hess.len());
        let mut builder = Builder {
            order,
            grad,
            hess,
            params,
            rows: (0..order.n as u32).collect(),
            sorted: order.sorted.clone(),
            goes_left: vec![false; order.n],
            scratch: Vec::with_capacity(order.n),
            nodes: Vec::new(),
        };
        let root = builder.build(0, order.n, params.max_depth);
        Self {
            nodes: builder.nodes,
            root,
        }
    }

    /// The raw leaf weight for one feature row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                TreeNode::Leaf { weight } => return *weight,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Leaf weights for every row of `x`.
    pub fn predict(&self, x: &Matrix) -> Vec<f64> {
        x.iter_rows().map(|row| self.predict_row(row)).collect()
    }

    /// Number of nodes (leaves + splits) — used to gauge model complexity.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Validate that every split's children are in-bounds and the node
    /// graph reachable from `root` is a tree (no index cycles), so a
    /// corrupted serialised tree fails loudly at deserialisation time
    /// instead of looping or panicking inside `predict_row`.
    fn validate(&self) -> Result<(), String> {
        if self.root >= self.nodes.len() {
            return Err(format!(
                "tree root {} out of bounds for {} nodes",
                self.root,
                self.nodes.len()
            ));
        }
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        while let Some(i) = stack.pop() {
            if visited[i] {
                return Err(format!("tree node {i} is reachable twice (cycle)"));
            }
            visited[i] = true;
            if let TreeNode::Split { left, right, .. } = &self.nodes[i] {
                for &child in [left, right] {
                    if child >= self.nodes.len() {
                        return Err(format!(
                            "tree child {child} out of bounds for {} nodes",
                            self.nodes.len()
                        ));
                    }
                    stack.push(child);
                }
            }
        }
        Ok(())
    }

    /// The largest feature index any split consults (`None` for a
    /// single-leaf tree). Deserialised ensembles check this against their
    /// declared feature count so a corrupted tree cannot index past a
    /// prediction row.
    pub fn max_feature_index(&self) -> Option<usize> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                TreeNode::Leaf { .. } => None,
                TreeNode::Split { feature, .. } => Some(*feature),
            })
            .max()
    }

    /// Depth of the deepest leaf.
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[TreeNode], i: usize) -> usize {
            match &nodes[i] {
                TreeNode::Leaf { .. } => 0,
                TreeNode::Split { left, right, .. } => {
                    1 + rec(nodes, *left).max(rec(nodes, *right))
                }
            }
        }
        rec(&self.nodes, self.root)
    }

    /// Compile into the flattened, branch-predictable [`FlatTree`] form.
    ///
    /// # Panics
    /// Panics if a split's child index is out of bounds — fitted trees are
    /// in-bounds by construction and deserialised trees are validated, so
    /// this only fires on a hand-built inconsistent tree. Asserting here,
    /// once per tree, is what lets the batch kernel walk the node arrays
    /// without per-step bounds checks.
    pub fn flatten(&self) -> FlatTree {
        let n = self.nodes.len();
        let mut feature = vec![0u32; n];
        let mut value = vec![0.0f64; n];
        let mut children = vec![0u64; n];
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                // Leaves self-loop: once a cursor arrives, further descent
                // steps are no-ops, so the batch walker can run a fixed
                // number of iterations with no per-step "am I done" branch.
                // `feature` stays 0 — a safe in-bounds column whose
                // comparison result is irrelevant on a self-loop.
                TreeNode::Leaf { weight } => {
                    value[i] = *weight;
                    children[i] = pack_children(i, i);
                }
                TreeNode::Split {
                    feature: f,
                    threshold,
                    left: l,
                    right: r,
                } => {
                    assert!(
                        *l < n && *r < n,
                        "split {i} has out-of-bounds child ({l}, {r}) for {n} nodes"
                    );
                    feature[i] = *f as u32;
                    value[i] = *threshold;
                    children[i] = pack_children(*l, *r);
                }
            }
        }
        assert!(
            self.root < n,
            "root {} out of bounds for {n} nodes",
            self.root
        );
        let depth = self.depth() as u32;
        let (heap_feature, heap_value) = if depth <= HEAP_DEPTH_MAX {
            self.build_heap(depth)
        } else {
            (Vec::new(), Vec::new())
        };
        FlatTree {
            feature,
            value,
            children,
            heap_feature,
            heap_value,
            root: self.root as u32,
            depth,
            min_width: self.max_feature_index().map_or(0, |f| f as u32 + 1),
        }
    }

    /// Build the perfect-heap form (see the [`FlatTree::heap_value`]
    /// docs): the tree padded to a perfect binary tree of height `depth`
    /// in level order. Leaves shallower than `depth` are copied down both
    /// virtual branches (feature 0, threshold 0.0 — the comparison result
    /// is irrelevant when both children are the same copy), so a cursor
    /// descending exactly `depth` levels always lands on the right leaf's
    /// weight in the bottom level.
    fn build_heap(&self, depth: u32) -> (Vec<u32>, Vec<f64>) {
        let internal = (1usize << depth) - 1;
        let mut hf = vec![0u32; internal];
        let mut hv = vec![0.0f64; (1usize << (depth + 1)) - 1];
        self.fill_heap(self.root, 0, 0, depth, &mut hf, &mut hv);
        (hf, hv)
    }

    fn fill_heap(
        &self,
        node: usize,
        heap: usize,
        level: u32,
        depth: u32,
        hf: &mut [u32],
        hv: &mut [f64],
    ) {
        if level == depth {
            // `depth` is the deepest leaf, so every path has terminated by
            // here: `node` is a leaf (possibly a shallower leaf copied
            // down), and the bottom level stores its weight.
            match &self.nodes[node] {
                TreeNode::Leaf { weight } => hv[heap] = *weight,
                TreeNode::Split { .. } => unreachable!("split below the deepest leaf"),
            }
            return;
        }
        let (left, right) = match &self.nodes[node] {
            TreeNode::Leaf { .. } => (node, node),
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                hf[heap] = *feature as u32;
                hv[heap] = *threshold;
                (*left, *right)
            }
        };
        self.fill_heap(left, 2 * heap + 1, level + 1, depth, hf, hv);
        self.fill_heap(right, 2 * heap + 2, level + 1, depth, hf, hv);
    }
}

/// A fitted regression tree compiled to structure-of-arrays form for the
/// batch scoring kernel.
///
/// The recursive [`RegressionTree`] stores an enum per node: every descent
/// step is a discriminant match plus a pointer-sized jump the branch
/// predictor cannot learn (the path depends on data). The flat form stores
/// the same tree as parallel node arrays, with leaves encoded as
/// *self-loops* (`left == right == self`). Descent then needs no
/// leaf-vs-split branch at all: every step is
///
/// ```text
/// n = if row[feature[n]] < value[n] { left[n] } else { right[n] }
/// ```
///
/// and running exactly `depth` steps is guaranteed to land on a leaf —
/// cursors that arrive early just spin in place. `value` is overloaded:
/// the split threshold on interior nodes, the leaf weight on leaves (the
/// two are never needed at the same node). Built once at fit/deserialise
/// time and never serialised — the wire format stays the v4 node-enum
/// document.
#[derive(Debug, Clone)]
pub struct FlatTree {
    /// Split feature per node (0 on leaves — safe, unused).
    feature: Vec<u32>,
    /// Split threshold on interior nodes; leaf weight on leaves.
    value: Vec<f64>,
    /// Child pair per node, packed `left | right << 32` (`self | self`
    /// on leaves). Packing lets the descent select a child with a shift
    /// (`pack >> (32 * go_right)`) — pure ALU work — instead of either a
    /// branch or a compare-dependent second load. Split directions are
    /// close to 50/50 by construction (that is what a good split does),
    /// the one case where a data-dependent branch is guaranteed to
    /// mispredict; and the pack is loaded *before* the compare resolves,
    /// so the only thing on the post-compare critical path is the shift.
    ///
    /// Invariant (established by `flatten`'s asserts, relied on by the
    /// unchecked loads in [`FlatTree::sweep`]): every packed index, and
    /// `root`, is `< feature.len() == value.len() == children.len()`.
    children: Vec<u64>,
    /// Split feature per *internal* slot of the perfect-heap form:
    /// `2^depth − 1` slots in level order (empty above
    /// [`HEAP_DEPTH_MAX`]). Padding slots (under a shallow leaf) keep
    /// feature 0 — in-bounds, result irrelevant.
    heap_feature: Vec<u32>,
    /// The perfect-heap form the batch kernel actually sweeps when the
    /// tree is shallow enough to pad: the tree completed to a perfect
    /// binary tree of height `depth`, stored in level order
    /// (`2^(depth+1) − 1` slots; thresholds on internal slots, leaf
    /// weights across the whole bottom level, shallow leaves copied down
    /// both virtual branches). Descent is then pure index arithmetic —
    /// `n = 2n + 1 + (x < v is false)` — with no child-pointer load at
    /// all, which drops a descent step from four loads to three and the
    /// child select from shift+mask to one `lea`; the kernel is
    /// issue-width bound, so fewer µops per step is directly more
    /// throughput. Empty when `depth > HEAP_DEPTH_MAX` (padding doubles
    /// per level); the kernel then falls back to [`FlatTree::sweep`] over
    /// the explicit-children arrays above, which always exist and always
    /// agree.
    heap_value: Vec<f64>,
    root: u32,
    /// Depth of the deepest leaf: after this many descent steps every
    /// cursor sits on a leaf.
    depth: u32,
    /// `max_feature_index + 1` (0 for a single-leaf tree): the narrowest
    /// row this tree can score. The batch kernel asserts rows are at
    /// least this wide once per call, which makes every per-step feature
    /// lookup provably in-bounds.
    min_width: u32,
}

/// How many descent chains `accumulate_margins` keeps in flight. Each
/// chain is latency-bound (load feature → load row value → compare →
/// select child), so eight independent chains give the out-of-order core
/// enough work to hide each chain's serial latency.
const CHAINS: usize = 16;

/// Deepest tree the perfect-heap form is built for: padding doubles per
/// level, so height 10 costs at most `2^11 − 1` slots (~16 KiB of
/// thresholds/weights — still comfortably L1-resident next to a row
/// block). Fitted trees are far shallower (`GbtConfig` depth defaults
/// to 4); only a pathological deserialised document exceeds this, and
/// those score through the explicit-children sweep instead.
const HEAP_DEPTH_MAX: u32 = 10;

/// Pack a `[left, right]` child pair into the shift-selectable u64 form.
fn pack_children(left: usize, right: usize) -> u64 {
    left as u64 | (right as u64) << 32
}

/// Select a child from a packed pair: `go_left` picks the low half
/// (left), otherwise the high half (right).
#[inline(always)]
fn select_child(pack: u64, go_left: bool) -> usize {
    ((pack >> (u32::from(!go_left) * 32)) & 0xffff_ffff) as usize
}

impl FlatTree {
    /// One descent step; on leaves (self-loops) this is the identity.
    #[inline(always)]
    fn step(&self, row: &[f64], n: usize) -> usize {
        // The comparison must be the recursive walker's own
        // `row[feature] < threshold`, negated as a *boolean* — writing
        // `>=` instead would flip the NaN cases, where `<` and `>=` are
        // both false (NaN on either side must go right, exactly like the
        // reference).
        let go_left = row[self.feature[n] as usize] < self.value[n];
        select_child(self.children[n], go_left)
    }

    /// The raw leaf weight for one feature row — bit-identical to
    /// [`RegressionTree::predict_row`] on the source tree.
    #[inline]
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut n = self.root as usize;
        for _ in 0..self.depth {
            n = self.step(row, n);
        }
        self.value[n]
    }

    /// Accumulate `eta * leaf_weight(row)` into `out` for every row of
    /// the row-major block `rows` (stride `d`): one tree over all rows,
    /// so this tree's node arrays stay in L1 while rows stream past.
    /// `CHAINS` rows are kept in flight so the independent descent
    /// chains overlap. Callers that score many rows should hand this
    /// L1-sized row blocks (see `Gbt::predict_margin_rows`): the win of
    /// tree-outer iteration is node locality, and it only compounds when
    /// the row block also stays cache-resident across trees.
    ///
    /// # Panics
    /// Panics if `rows.len() != out.len() * d` or if `d` is narrower than
    /// the widest feature index this tree consults (callers size the
    /// margin buffer and the rows against the fitted width).
    pub fn accumulate_margins(&self, rows: &[f64], d: usize, eta: f64, out: &mut [f64]) {
        assert_eq!(rows.len(), out.len() * d);
        assert!(
            d >= self.min_width as usize,
            "rows of width {d} for a tree consulting feature {}",
            self.min_width.saturating_sub(1),
        );
        let tail = if self.heap_value.is_empty() {
            self.sweep(rows, d, eta, out)
        } else {
            self.sweep_heap(rows, d, eta, out)
        };
        for (j, o) in out.iter_mut().enumerate().skip(tail) {
            *o += eta * self.predict_row(&rows[j * d..(j + 1) * d]);
        }
    }

    /// The chained sweep over the perfect-heap form: per descent step,
    /// three loads (feature, threshold, row gather), one compare, and an
    /// address computation — no child load, no select. Returns the index
    /// of the first row left for the scalar remainder loop.
    fn sweep_heap(&self, rows: &[f64], d: usize, eta: f64, out: &mut [f64]) -> usize {
        let feature = self.heap_feature.as_slice();
        let value = self.heap_value.as_slice();
        let depth = self.depth as usize;
        let mut i = 0;
        while i + CHAINS <= out.len() {
            let base = i * d;
            let mut ns = [0usize; CHAINS];
            for _ in 0..depth {
                for (j, n) in ns.iter_mut().enumerate() {
                    // SAFETY: after `s < depth` descent steps
                    // `*n < 2^(s+1) − 1 <= 2^depth − 1 == feature.len()`,
                    // and `value.len() == 2^(depth+1) − 1 > feature.len()`.
                    debug_assert!(*n < feature.len() && feature.len() < value.len());
                    let f = unsafe { *feature.get_unchecked(*n) } as usize;
                    let v = unsafe { *value.get_unchecked(*n) };
                    // SAFETY: `f < min_width <= d` (padding slots keep
                    // feature 0, real ones are fitted/validated split
                    // indices), and `base + j*d + f < (i + j + 1) * d <=
                    // out.len() * d == rows.len()` — both asserted by
                    // `accumulate_margins`.
                    debug_assert!(f < d && base + j * d + f < rows.len());
                    let x = unsafe { *rows.get_unchecked(base + j * d + f) };
                    // The recursive walker's own `row[feature] < threshold`
                    // as a *boolean* (never rewritten to `>=`, which would
                    // flip the NaN cases): true descends to the left child
                    // `2n + 1`, false — including NaN on either side — to
                    // the right child `2n + 2`.
                    *n = 2 * *n + 2 - usize::from(x < v);
                }
            }
            for j in 0..CHAINS {
                // SAFETY: `ns[j] < 2^(depth+1) − 1 == value.len()`.
                debug_assert!(ns[j] < value.len());
                out[i + j] += eta * unsafe { *value.get_unchecked(ns[j]) };
            }
            i += CHAINS;
        }
        i
    }

    /// The chained sweep: [`CHAINS`] descent cursors in flight, every load
    /// unchecked. Each chain's step is a serial ~13-cycle dependence
    /// (node load → row gather → compare → child select), so throughput
    /// comes entirely from the chains overlapping in the out-of-order
    /// window; per-step bounds checks would both lengthen that chain and
    /// burn the issue slots the overlap needs. Returns the index of the
    /// first row left for the scalar remainder loop.
    fn sweep(&self, rows: &[f64], d: usize, eta: f64, out: &mut [f64]) -> usize {
        let feature = self.feature.as_slice();
        let value = self.value.as_slice();
        let children = self.children.as_slice();
        let root = self.root as usize;
        let mut i = 0;
        while i + CHAINS <= out.len() {
            let base = i * d;
            let mut ns = [root; CHAINS];
            for _ in 0..self.depth {
                for (j, n) in ns.iter_mut().enumerate() {
                    // SAFETY: `*n` is `root` or a packed child index, both
                    // `< len` by the `flatten` invariant on `children`.
                    debug_assert!(*n < feature.len() && *n < value.len() && *n < children.len());
                    let f = unsafe { *feature.get_unchecked(*n) } as usize;
                    let v = unsafe { *value.get_unchecked(*n) };
                    let c = unsafe { *children.get_unchecked(*n) };
                    // SAFETY: `f < min_width <= d` (asserted by the
                    // caller), and `base + j*d + f < (i + j + 1) * d <=
                    // out.len() * d == rows.len()` (asserted entry-wise by
                    // `accumulate_margins`).
                    debug_assert!(f < d && base + j * d + f < rows.len());
                    let x = unsafe { *rows.get_unchecked(base + j * d + f) };
                    *n = select_child(c, x < v);
                }
            }
            for j in 0..CHAINS {
                // SAFETY: `ns[j] < len` as above.
                debug_assert!(ns[j] < value.len());
                out[i + j] += eta * unsafe { *value.get_unchecked(ns[j]) };
            }
            i += CHAINS;
        }
        i
    }
}

// Manual serde impls: `TreeNode` is an enum, beyond the derive shim. Leaves
// serialise as `{"weight": w}`, splits as
// `{"feature": j, "threshold": t, "left": l, "right": r}`; thresholds and
// weights round-trip bit-exactly, so a restored tree routes and scores every
// row identically.
impl serde::Serialize for TreeNode {
    fn to_value(&self) -> serde::Value {
        match self {
            TreeNode::Leaf { weight } => {
                serde::Value::Object(vec![("weight".into(), serde::Value::Number(*weight))])
            }
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => serde::Value::Object(vec![
                ("feature".into(), serde::Value::Number(*feature as f64)),
                ("threshold".into(), serde::Value::Number(*threshold)),
                ("left".into(), serde::Value::Number(*left as f64)),
                ("right".into(), serde::Value::Number(*right as f64)),
            ]),
        }
    }
}

impl serde::Deserialize for TreeNode {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        if let Some(w) = v.get("weight") {
            return Ok(TreeNode::Leaf {
                weight: serde::Deserialize::from_value(w)?,
            });
        }
        Ok(TreeNode::Split {
            feature: serde::Deserialize::from_value(v.get_or_err("feature")?)?,
            threshold: serde::Deserialize::from_value(v.get_or_err("threshold")?)?,
            left: serde::Deserialize::from_value(v.get_or_err("left")?)?,
            right: serde::Deserialize::from_value(v.get_or_err("right")?)?,
        })
    }
}

impl serde::Serialize for RegressionTree {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("nodes".into(), self.nodes.to_value()),
            ("root".into(), serde::Value::Number(self.root as f64)),
        ])
    }
}

impl serde::Deserialize for RegressionTree {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let tree = RegressionTree {
            nodes: serde::Deserialize::from_value(v.get_or_err("nodes")?)?,
            root: serde::Deserialize::from_value(v.get_or_err("root")?)?,
        };
        if tree.nodes.is_empty() {
            return Err(serde::Error::msg("a regression tree needs nodes"));
        }
        tree.validate().map_err(serde::Error::msg)?;
        Ok(tree)
    }
}

fn leaf_weight(g: f64, h: f64, lambda: f64) -> f64 {
    -g / (h + lambda)
}

/// Every feature's rows sorted by value, ties in ascending row order:
/// the exact-greedy presort, computed once per ensemble fit.
pub(crate) struct FeatureOrder {
    /// Row count.
    n: usize,
    /// The feature matrix column-major: feature `f`'s values are
    /// `columns[f * n..(f + 1) * n]`, so a node's scan gathers from one
    /// contiguous column.
    columns: Vec<f64>,
    /// Feature `f`'s rows in value order: `sorted[f * n..(f + 1) * n]`.
    sorted: Vec<u32>,
}

impl FeatureOrder {
    /// Sort every feature of `x`.
    ///
    /// # Panics
    /// Panics on a NaN feature value, as the per-node sort did, and on
    /// more rows than a `u32` row index holds.
    pub(crate) fn new(x: &Matrix) -> Self {
        let n = x.rows();
        assert!(
            u32::try_from(n).is_ok(),
            "{n} rows exceed the u32 row index"
        );
        let columns = x.transpose().into_vec();
        let mut sorted = Vec::with_capacity(columns.len());
        for col in columns.chunks_exact(n.max(1)) {
            let start = sorted.len();
            sorted.extend(0..n as u32);
            // Stable: equal values keep ascending row order.
            sorted[start..].sort_by(|&a, &b| {
                col[a as usize]
                    .partial_cmp(&col[b as usize])
                    .expect("NaN feature value")
            });
        }
        Self { n, columns, sorted }
    }

    fn column(&self, f: usize) -> &[f64] {
        &self.columns[f * self.n..(f + 1) * self.n]
    }

    fn features(&self) -> usize {
        self.columns.len() / self.n.max(1)
    }
}

/// One tree's growth state. A node owns the range `lo..hi` of `rows` (its
/// rows, ascending) and of every feature's segment of `sorted` (its rows
/// in that feature's value order); a split stably partitions each range
/// into the children's two subranges.
struct Builder<'a> {
    order: &'a FeatureOrder,
    grad: &'a [f64],
    hess: &'a [f64],
    params: &'a TreeParams,
    rows: Vec<u32>,
    sorted: Vec<u32>,
    /// Per row: does the split being applied send it left.
    goes_left: Vec<bool>,
    scratch: Vec<u32>,
    nodes: Vec<TreeNode>,
}

impl Builder<'_> {
    fn build(&mut self, lo: usize, hi: usize, depth_left: usize) -> usize {
        let (grad, hess, params) = (self.grad, self.hess, self.params);
        let rows = &self.rows[lo..hi];
        let g_total: f64 = rows.iter().map(|&i| grad[i as usize]).sum();
        let h_total: f64 = rows.iter().map(|&i| hess[i as usize]).sum();

        let make_leaf = |nodes: &mut Vec<TreeNode>| {
            nodes.push(TreeNode::Leaf {
                weight: leaf_weight(g_total, h_total, params.lambda),
            });
            nodes.len() - 1
        };

        if depth_left == 0 || rows.len() < 2 {
            return make_leaf(&mut self.nodes);
        }

        // Exact greedy: scan every feature's sorted values for the best split.
        let n = self.order.n;
        let parent_score = g_total * g_total / (h_total + params.lambda);
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        for feature in 0..self.order.features() {
            let col = self.order.column(feature);
            let sorted = &self.sorted[feature * n + lo..feature * n + hi];
            let mut g_left = 0.0;
            let mut h_left = 0.0;
            for pair in sorted.windows(2) {
                let (i, next) = (pair[0] as usize, pair[1] as usize);
                g_left += grad[i];
                h_left += hess[i];
                // Can't split between equal values.
                if col[i] == col[next] {
                    continue;
                }
                let h_right = h_total - h_left;
                if h_left < params.min_child_weight || h_right < params.min_child_weight {
                    continue;
                }
                let g_right = g_total - g_left;
                let gain = 0.5
                    * (g_left * g_left / (h_left + params.lambda)
                        + g_right * g_right / (h_right + params.lambda)
                        - parent_score)
                    - params.gamma;
                if gain > best.map_or(0.0, |b| b.0) {
                    let threshold = 0.5 * (col[i] + col[next]);
                    best = Some((gain, feature, threshold));
                }
            }
        }

        let Some((_, feature, threshold)) = best else {
            return make_leaf(&mut self.nodes);
        };

        let col = self.order.column(feature);
        for &i in &self.rows[lo..hi] {
            self.goes_left[i as usize] = col[i as usize] < threshold;
        }
        let mid = lo + stable_partition(&mut self.rows[lo..hi], &self.goes_left, &mut self.scratch);
        debug_assert!(lo < mid && mid < hi);
        // Children at depth 0 are leaves and never scan.
        if depth_left > 1 {
            for f in 0..self.order.features() {
                let seg = &mut self.sorted[f * n + lo..f * n + hi];
                stable_partition(seg, &self.goes_left, &mut self.scratch);
            }
        }

        let left = self.build(lo, mid, depth_left - 1);
        let right = self.build(mid, hi, depth_left - 1);
        self.nodes.push(TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        });
        self.nodes.len() - 1
    }
}

/// Move the rows that go left to the front of `seg`, both sides keeping
/// their relative order; returns how many go left.
fn stable_partition(seg: &mut [u32], goes_left: &[bool], scratch: &mut Vec<u32>) -> usize {
    scratch.clear();
    let mut left = 0;
    for k in 0..seg.len() {
        let i = seg[k];
        if goes_left[i as usize] {
            seg[left] = i;
            left += 1;
        } else {
            scratch.push(i);
        }
    }
    seg[left..].copy_from_slice(scratch);
    left
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squared-error boosting reduction: g = pred − y with pred = 0, h = 1.
    fn regression_setup(xs: &[f64], ys: &[f64]) -> (Matrix, Vec<f64>, Vec<f64>) {
        let x = Matrix::from_rows(&xs.iter().map(|&v| vec![v]).collect::<Vec<_>>());
        let grad: Vec<f64> = ys.iter().map(|&y| -y).collect();
        let hess = vec![1.0; ys.len()];
        (x, grad, hess)
    }

    #[test]
    fn fits_a_step_function() {
        let xs = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0];
        let ys = [0.0, 0.0, 0.0, 0.0, 4.0, 4.0, 4.0, 4.0];
        let (x, g, h) = regression_setup(&xs, &ys);
        let tree = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                lambda: 0.0,
                min_child_weight: 0.0,
                ..TreeParams::default()
            },
        );
        // Predictions approximate the two plateaus.
        for (i, &xv) in xs.iter().enumerate() {
            let p = tree.predict_row(&[xv]);
            assert!((p - ys[i]).abs() < 1e-9, "x={xv} p={p}");
        }
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 0.0, 1.0, 1.0];
        let (x, g, h) = regression_setup(&xs, &ys);
        let tree = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                max_depth: 0,
                lambda: 0.0,
                ..TreeParams::default()
            },
        );
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.depth(), 0);
        // Single leaf = mean of y (with λ=0, h=1 each): −(−2)/4 = 0.5.
        assert!((tree.predict_row(&[0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gamma_prunes_weak_splits() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 0.1, 0.0, 0.1]; // nearly constant target
        let (x, g, h) = regression_setup(&xs, &ys);
        let no_gamma = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                gamma: 0.0,
                lambda: 0.0,
                min_child_weight: 0.0,
                ..TreeParams::default()
            },
        );
        let with_gamma = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                gamma: 10.0,
                lambda: 0.0,
                min_child_weight: 0.0,
                ..TreeParams::default()
            },
        );
        assert!(with_gamma.node_count() <= no_gamma.node_count());
        assert_eq!(with_gamma.node_count(), 1, "large gamma forces a stump");
    }

    #[test]
    fn min_child_weight_blocks_tiny_children() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 0.0, 0.0, 5.0];
        let (x, g, h) = regression_setup(&xs, &ys);
        let tree = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                min_child_weight: 2.0, // each child needs ≥ 2 rows (h = 1 each)
                lambda: 0.0,
                ..TreeParams::default()
            },
        );
        // The only useful split (isolating x=3) would leave a child with
        // hessian 1 < 2, so it must be rejected: best remaining split is 2/2.
        let p0 = tree.predict_row(&[0.5]);
        let p3 = tree.predict_row(&[3.0]);
        assert!((p0 - 0.0).abs() < 1e-9);
        assert!((p3 - 2.5).abs() < 1e-9, "x≥2 leaf averages 0 and 5");
    }

    #[test]
    fn constant_features_yield_single_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]);
        let g = vec![-1.0, 0.0, 1.0];
        let h = vec![1.0; 3];
        let tree = RegressionTree::fit(&x, &g, &h, &TreeParams::default());
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn respects_max_depth() {
        let xs: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..64).map(|i| (i % 2) as f64).collect();
        let (x, g, h) = regression_setup(&xs, &ys);
        let tree = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                max_depth: 3,
                lambda: 0.0,
                min_child_weight: 0.0,
                ..TreeParams::default()
            },
        );
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn flat_form_matches_recursive_walker_on_fitted_trees() {
        let xs: Vec<f64> = (0..64).map(|i| (i * 37 % 64) as f64).collect();
        let ys: Vec<f64> = (0..64).map(|i| ((i * 13) % 5) as f64).collect();
        let (x, g, h) = regression_setup(&xs, &ys);
        let tree = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                lambda: 0.0,
                min_child_weight: 0.0,
                ..TreeParams::default()
            },
        );
        let flat = tree.flatten();
        for row in x.iter_rows() {
            assert_eq!(
                flat.predict_row(row).to_bits(),
                tree.predict_row(row).to_bits()
            );
        }
        // Batch accumulation over all rows (tile + remainder lanes).
        let mut margins = vec![0.25; x.rows()];
        flat.accumulate_margins(x.as_slice(), x.cols(), 0.3, &mut margins);
        for (i, row) in x.iter_rows().enumerate() {
            let expected = 0.25 + 0.3 * tree.predict_row(row);
            assert_eq!(margins[i].to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn flat_single_leaf_tree_is_depth_zero_self_loop() {
        let tree = RegressionTree {
            nodes: vec![TreeNode::Leaf { weight: -1.5 }],
            root: 0,
        };
        let flat = tree.flatten();
        assert_eq!(flat.depth, 0);
        assert_eq!(flat.children[0], pack_children(0, 0));
        assert_eq!(flat.predict_row(&[]).to_bits(), (-1.5f64).to_bits());
        let x = Matrix::from_rows(&[vec![9.0], vec![-9.0], vec![0.0]]);
        let mut margins = vec![0.0; 3];
        flat.accumulate_margins(x.as_slice(), x.cols(), 1.0, &mut margins);
        assert!(margins.iter().all(|m| m.to_bits() == (-1.5f64).to_bits()));
    }

    #[test]
    fn wide_feature_tree_sweeps_like_the_recursive_walker() {
        // A split consulting feature 2¹⁶ stresses the `min_width` bound
        // that licenses the kernel's unchecked row gathers — the batch
        // sweep must agree with the recursive walker on both the chained
        // and remainder rows even when rows are this wide.
        const WIDE: usize = 1 << 16;
        let tree = RegressionTree {
            nodes: vec![
                TreeNode::Leaf { weight: -3.0 },
                TreeNode::Leaf { weight: 4.0 },
                TreeNode::Split {
                    feature: WIDE,
                    threshold: 0.5,
                    left: 0,
                    right: 1,
                },
            ],
            root: 2,
        };
        let flat = tree.flatten();
        assert_eq!(flat.min_width as usize, WIDE + 1);
        let rows = CHAINS + 3; // chained groups plus remainder lanes
        let mut data = vec![0.0f64; rows * (WIDE + 1)];
        for (i, row) in data.chunks_mut(WIDE + 1).enumerate() {
            row[WIDE] = i as f64 - 8.0;
        }
        let mut margins = vec![0.0f64; rows];
        flat.accumulate_margins(&data, WIDE + 1, 0.5, &mut margins);
        for (i, row) in data.chunks(WIDE + 1).enumerate() {
            let expected = 0.5 * tree.predict_row(row);
            assert_eq!(margins[i].to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn deep_tree_beyond_heap_limit_sweeps_like_the_recursive_walker() {
        // A comb of HEAP_DEPTH_MAX + 2 splits exceeds the perfect-heap
        // padding limit, so `flatten` leaves the heap form empty and the
        // batch kernel runs the explicit-children sweep — which must
        // agree with the recursive walker on chained and remainder rows.
        let deep = (HEAP_DEPTH_MAX + 2) as usize;
        let mut nodes = Vec::new();
        for k in 0..deep {
            // Split k: `x < k` drops to leaf −k, otherwise on to split k+1
            // (the last split's right child is the terminal leaf).
            let right = if k + 1 < deep { k + 1 } else { 2 * deep };
            nodes.push(TreeNode::Split {
                feature: 0,
                threshold: k as f64,
                left: deep + k,
                right,
            });
        }
        for k in 0..deep {
            nodes.push(TreeNode::Leaf {
                weight: -(k as f64),
            });
        }
        nodes.push(TreeNode::Leaf { weight: 99.0 });
        let tree = RegressionTree { nodes, root: 0 };
        assert!(tree.depth() > HEAP_DEPTH_MAX as usize);
        let flat = tree.flatten();
        assert!(flat.heap_value.is_empty());
        let rows = 2 * CHAINS + 3; // chained groups plus remainder lanes
        let data: Vec<f64> = (0..rows).map(|i| i as f64 - 2.5).collect();
        let mut margins = vec![0.5; rows];
        flat.accumulate_margins(&data, 1, 2.0, &mut margins);
        for (i, x) in data.iter().enumerate() {
            let expected = 0.5 + 2.0 * tree.predict_row(std::slice::from_ref(x));
            assert_eq!(margins[i].to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn nan_threshold_routes_right_in_both_walkers() {
        // Fitted trees cannot carry NaN thresholds (fit sorts would panic,
        // and the JSON wire format cannot encode NaN), but the kernel
        // contract is defined for any tree the type can represent: with a
        // NaN threshold `row[f] < NaN` is false for every value, so both
        // walkers must send everything right. Same for NaN *feature
        // values* against a finite threshold.
        let tree = RegressionTree {
            nodes: vec![
                TreeNode::Leaf { weight: 1.0 },
                TreeNode::Leaf { weight: 2.0 },
                TreeNode::Split {
                    feature: 0,
                    threshold: f64::NAN,
                    left: 0,
                    right: 1,
                },
            ],
            root: 2,
        };
        let flat = tree.flatten();
        for v in [-1e300, -1.0, 0.0, 1.0, 1e300, f64::NAN] {
            assert_eq!(tree.predict_row(&[v]), 2.0);
            assert_eq!(flat.predict_row(&[v]), 2.0);
        }
        let finite = RegressionTree {
            nodes: vec![
                TreeNode::Leaf { weight: 1.0 },
                TreeNode::Leaf { weight: 2.0 },
                TreeNode::Split {
                    feature: 0,
                    threshold: 0.5,
                    left: 0,
                    right: 1,
                },
            ],
            root: 2,
        };
        let finite_flat = finite.flatten();
        assert_eq!(finite.predict_row(&[f64::NAN]), 2.0);
        assert_eq!(finite_flat.predict_row(&[f64::NAN]), 2.0);
    }

    #[test]
    fn multi_feature_split_picks_informative_feature() {
        // Feature 0 is noise; feature 1 perfectly separates.
        let x = Matrix::from_rows(&[
            vec![0.3, 0.0],
            vec![0.9, 0.0],
            vec![0.1, 1.0],
            vec![0.7, 1.0],
        ]);
        let g = vec![0.0, 0.0, -1.0, -1.0];
        let h = vec![1.0; 4];
        let tree = RegressionTree::fit(
            &x,
            &g,
            &h,
            &TreeParams {
                max_depth: 1,
                lambda: 0.0,
                min_child_weight: 0.0,
                ..TreeParams::default()
            },
        );
        // Predict by feature 1 regardless of feature 0.
        assert!(tree.predict_row(&[0.5, 0.0]) < tree.predict_row(&[0.5, 1.0]));
    }
}
