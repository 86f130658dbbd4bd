package stackdist

// reuseTree is the sampled profiler's distance counter: a splay tree
// over the *recency order* of the currently-sampled lines, with
// subtree sizes. There are no explicit keys — every insertion is a
// most-recent insertion (the new global maximum of the implicit
// last-access order), so the in-order position of a node IS its
// recency rank, and the number of nodes to its right is the number of
// distinct sampled lines touched since its own last access. That
// right-subtree size, read after splaying the node to the root, is
// exactly the SHARDS sampled stack distance.
//
// Nodes live in one pooled slice indexed by int32 (nilNode = -1) and
// are recycled through a free list, so the steady-state tree performs
// no allocations at all; growth happens only in grow(), which the hot
// feed loop never reaches (internal/stackdist.SampledProfiler feeds in
// bounded runs and grows between them).
type reuseTree struct {
	nodes []treeNode
	root  int32
	free  int32 // head of the free list, threaded through .left
}

// nilNode is the tree's nil sentinel.
const nilNode = int32(-1)

// treeNode is one sampled line. size is the subtree size (for rank
// queries); line and hash identify the sampled line for the table and
// the eviction heap.
type treeNode struct {
	left, right, parent int32
	size                uint32
	line                uint64
	hash                uint32
}

// newReuseTree builds a tree with capacity pooled nodes, all free.
func newReuseTree(capacity int) *reuseTree {
	t := &reuseTree{root: nilNode, free: nilNode}
	t.grow(capacity)
	return t
}

// grow adds n nodes to the pool and threads them onto the free list.
// Never called from the hot path (the feed loop early-returns when the
// free list runs dry).
func (t *reuseTree) grow(n int) {
	base := len(t.nodes)
	t.nodes = append(t.nodes, make([]treeNode, n)...)
	for i := base + n - 1; i >= base; i-- {
		t.nodes[i].left = t.free
		t.free = int32(i)
	}
}

// alloc pops a free node and initialises it for line. Returns nilNode
// when the pool is exhausted (callers grow and retry).
//
//lint:hotpath
func (t *reuseTree) alloc(line uint64, hash uint32) int32 {
	idx := t.free
	if idx == nilNode {
		return nilNode
	}
	t.free = t.nodes[idx].left
	n := &t.nodes[idx]
	n.left, n.right, n.parent = nilNode, nilNode, nilNode
	n.size = 1
	n.line = line
	n.hash = hash
	return idx
}

// release returns a detached node to the free list.
//
//lint:hotpath
func (t *reuseTree) release(idx int32) {
	n := &t.nodes[idx]
	n.line = 0
	n.left = t.free
	t.free = idx
}

// size returns the subtree size of idx (0 for nilNode).
//
//lint:hotpath
func (t *reuseTree) size(idx int32) uint32 {
	if idx == nilNode {
		return 0
	}
	return t.nodes[idx].size
}

// rotateUp rotates x above its parent, maintaining sizes.
//
//lint:hotpath
func (t *reuseTree) rotateUp(x int32) {
	nodes := t.nodes
	p := nodes[x].parent
	g := nodes[p].parent
	if nodes[p].left == x {
		b := nodes[x].right
		nodes[p].left = b
		if b != nilNode {
			nodes[b].parent = p
		}
		nodes[x].right = p
	} else {
		b := nodes[x].left
		nodes[p].right = b
		if b != nilNode {
			nodes[b].parent = p
		}
		nodes[x].left = p
	}
	nodes[p].parent = x
	nodes[x].parent = g
	if g != nilNode {
		if nodes[g].left == p {
			nodes[g].left = x
		} else {
			nodes[g].right = x
		}
	}
	nodes[x].size = nodes[p].size
	nodes[p].size = t.size(nodes[p].left) + t.size(nodes[p].right) + 1
}

// splay brings x to the root with the standard zig / zig-zig / zig-zag
// steps.
//
//lint:hotpath
func (t *reuseTree) splay(x int32) {
	nodes := t.nodes
	for nodes[x].parent != nilNode {
		p := nodes[x].parent
		g := nodes[p].parent
		if g == nilNode {
			t.rotateUp(x)
		} else if (nodes[g].left == p) == (nodes[p].left == x) {
			t.rotateUp(p) // zig-zig
			t.rotateUp(x)
		} else {
			t.rotateUp(x) // zig-zag
			t.rotateUp(x)
		}
	}
	t.root = x
}

// insertMax links x as the new most-recent node: everything currently
// in the tree is older, so x becomes the root with the old tree as its
// left subtree. O(1).
//
//lint:hotpath
func (t *reuseTree) insertMax(x int32) {
	nodes := t.nodes
	nodes[x].left = t.root
	nodes[x].right = nilNode
	nodes[x].parent = nilNode
	nodes[x].size = t.size(t.root) + 1
	if t.root != nilNode {
		nodes[t.root].parent = x
	}
	t.root = x
}

// detachRoot removes the current root and joins its subtrees: the
// rightmost (most recent) node of the left subtree is splayed to its
// top and adopts the right subtree. The detached node is NOT freed.
//
//lint:hotpath
func (t *reuseTree) detachRoot() {
	nodes := t.nodes
	x := t.root
	l, r := nodes[x].left, nodes[x].right
	nodes[x].left, nodes[x].right = nilNode, nilNode
	if l != nilNode {
		nodes[l].parent = nilNode
	}
	if r != nilNode {
		nodes[r].parent = nilNode
	}
	if l == nilNode {
		t.root = r
		return
	}
	// Walk to the maximum of the left subtree and splay it within the
	// (now detached) subtree; its right child is then free for r.
	m := l
	for nodes[m].right != nilNode {
		m = nodes[m].right
	}
	t.root = l // splay terminates at the subtree's top
	t.splay(m)
	nodes[m].right = r
	if r != nilNode {
		nodes[r].parent = m
		nodes[m].size += nodes[r].size
	}
	t.root = m
}

// touch records a re-access of node idx: it returns the node's sampled
// stack distance (the number of distinct sampled lines touched since
// idx's own last access) and moves idx to the most-recent position.
//
//lint:hotpath
func (t *reuseTree) touch(idx int32) uint32 {
	t.splay(idx)
	rank := t.size(t.nodes[idx].right)
	t.detachRoot()
	t.insertMax(idx)
	return rank
}

// remove evicts node idx from the tree and frees it.
//
//lint:hotpath
func (t *reuseTree) remove(idx int32) {
	t.splay(idx)
	t.detachRoot()
	t.release(idx)
}
