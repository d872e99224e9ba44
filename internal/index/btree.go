package index

import "repro/internal/cell"

// BTree is an order-statistics B-tree over the (value, row) pairs of one
// column, supporting the ordered operations a hash index cannot: range
// counts for inequality criteria (COUNTIF(">=5")) and floor lookups for
// approximate-match VLOOKUP on unsorted sheets. Keys order by
// cell.Value.Compare with the row as tiebreaker, so duplicate values are
// supported. Every node carries its subtree size, making counts
// logarithmic.
type BTree struct {
	order int
	root  *btNode
}

type btItem struct {
	val cell.Value
	row int32
}

type btNode struct {
	items    []btItem  // sorted keys
	children []*btNode // nil for leaves; else len(items)+1
	size     int       // items in this subtree
}

func (n *btNode) leaf() bool { return n.children == nil }

// NewBTree returns an empty B-tree. Order is the maximum number of items
// per node; values below 4 are raised to 4.
func NewBTree(order int) *BTree {
	if order < 4 {
		order = 4
	}
	return &BTree{order: order, root: &btNode{}}
}

// Len returns the number of stored (value, row) pairs.
func (t *BTree) Len() int { return t.root.size }

func less(a, b btItem) bool {
	c := a.val.Compare(b.val)
	if c != 0 {
		return c < 0
	}
	return a.row < b.row
}

// search returns the first index i with items[i] >= it.
func search(items []btItem, it btItem) int {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		if less(items[mid], it) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func recomputeSize(n *btNode) {
	n.size = len(n.items)
	for _, c := range n.children {
		n.size += c.size
	}
}

// Add inserts the pair (v, row). Empty values are not indexed.
func (t *BTree) Add(row int, v cell.Value) {
	if v.IsEmpty() {
		return
	}
	it := btItem{val: v, row: int32(row)}
	if len(t.root.items) >= t.order {
		left, sep, right := split(t.root)
		t.root = &btNode{
			items:    []btItem{sep},
			children: []*btNode{left, right},
		}
		recomputeSize(t.root)
	}
	insertNonFull(t.root, it, t.order)
}

func split(n *btNode) (left *btNode, sep btItem, right *btNode) {
	mid := len(n.items) / 2
	sep = n.items[mid]
	if n.leaf() {
		left = &btNode{items: append([]btItem(nil), n.items[:mid]...)}
		right = &btNode{items: append([]btItem(nil), n.items[mid+1:]...)}
	} else {
		left = &btNode{
			items:    append([]btItem(nil), n.items[:mid]...),
			children: append([]*btNode(nil), n.children[:mid+1]...),
		}
		right = &btNode{
			items:    append([]btItem(nil), n.items[mid+1:]...),
			children: append([]*btNode(nil), n.children[mid+1:]...),
		}
	}
	recomputeSize(left)
	recomputeSize(right)
	return left, sep, right
}

func insertNonFull(n *btNode, it btItem, order int) {
	for {
		n.size++
		i := search(n.items, it)
		if n.leaf() {
			n.items = append(n.items, btItem{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = it
			return
		}
		child := n.children[i]
		if len(child.items) >= order {
			left, sep, right := split(child)
			n.items = append(n.items, btItem{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = sep
			n.children = append(n.children, nil)
			copy(n.children[i+2:], n.children[i+1:])
			n.children[i] = left
			n.children[i+1] = right
			if less(sep, it) {
				i++
			}
			child = n.children[i]
		}
		n = child
	}
}

// Contains reports whether the exact pair (v, row) is stored.
func (t *BTree) Contains(row int, v cell.Value) bool {
	it := btItem{val: v, row: int32(row)}
	n := t.root
	for {
		i := search(n.items, it)
		if i < len(n.items) && !less(it, n.items[i]) {
			return true
		}
		if n.leaf() {
			return false
		}
		n = n.children[i]
	}
}

// Remove deletes the pair (v, row) if present, returning whether it was.
// It keeps the invariants Add maintains — every non-root node holds at
// least minItems items and all leaves sit at the same depth — by
// rebalancing each short node on the way back up (see rebalance).
func (t *BTree) Remove(row int, v cell.Value) bool {
	if v.IsEmpty() {
		return false
	}
	if !t.remove(t.root, btItem{val: v, row: int32(row)}) {
		return false
	}
	if len(t.root.items) == 0 && !t.root.leaf() {
		t.root = t.root.children[0] // a merge emptied the root
	}
	return true
}

// minItems is the fewest items a non-root node may hold: a split of a
// full node leaves at least this many on each side, and a merge of a short
// node with a minimal sibling fits within the order.
func (t *BTree) minItems() int { return (t.order - 1) / 2 }

// remove deletes it from n's subtree, reporting whether it was present.
// The child it descended into is rebalanced before returning, so only the
// root may be left short.
func (t *BTree) remove(n *btNode, it btItem) bool {
	i := search(n.items, it)
	found := i < len(n.items) && !less(it, n.items[i])
	if n.leaf() {
		if !found {
			return false
		}
		n.items = append(n.items[:i], n.items[i+1:]...)
		n.size--
		return true
	}
	if found {
		// Swap in the predecessor: the maximum of the left subtree.
		n.items[i] = t.removeMax(n.children[i])
	} else if !t.remove(n.children[i], it) {
		return false
	}
	n.size--
	t.rebalance(n, i)
	return true
}

// removeMax deletes and returns the largest item of n's subtree.
func (t *BTree) removeMax(n *btNode) btItem {
	n.size--
	if n.leaf() {
		last := n.items[len(n.items)-1]
		n.items = n.items[:len(n.items)-1]
		return last
	}
	i := len(n.children) - 1
	it := t.removeMax(n.children[i])
	t.rebalance(n, i)
	return it
}

// rebalance restores the minimum occupancy of n.children[i] after a
// removal below it: the short child, its separator and a sibling merge
// into one node, which is split evenly again around a new separator when
// it would overflow the order.
func (t *BTree) rebalance(n *btNode, i int) {
	if len(n.children[i].items) >= t.minItems() {
		return
	}
	if i == len(n.items) {
		i-- // the last child pairs with its left sibling
	}
	l, r := n.children[i], n.children[i+1]
	m := &btNode{
		items:    append(append(append([]btItem(nil), l.items...), n.items[i]), r.items...),
		children: append(append([]*btNode(nil), l.children...), r.children...),
		size:     l.size + 1 + r.size,
	}
	if len(m.items) > t.order {
		n.children[i], n.items[i], n.children[i+1] = split(m)
		return
	}
	n.children[i] = m
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// Replace updates the index for a single cell edit.
func (t *BTree) Replace(row int, old, new cell.Value) {
	t.Remove(row, old)
	t.Add(row, new)
}

// CountLE returns the number of stored pairs with value <= v, plus the node
// probes performed (for metering). Logarithmic via subtree sizes.
func (t *BTree) CountLE(v cell.Value) (count, probes int) {
	return t.countLess(btItem{val: v, row: 1<<31 - 1})
}

// CountLT returns the number of stored pairs with value < v.
func (t *BTree) CountLT(v cell.Value) (count, probes int) {
	return t.countLess(btItem{val: v, row: -1})
}

// countLess counts items strictly less than it in the composite order.
func (t *BTree) countLess(it btItem) (count, probes int) {
	n := t.root
	for {
		probes++
		i := search(n.items, it)
		count += i
		if n.leaf() {
			return count, probes
		}
		for c := 0; c < i; c++ {
			count += n.children[c].size
		}
		n = n.children[i]
	}
}

// Floor returns the largest stored value <= v along with its row; ok is
// false when every stored value exceeds v. Serves approximate-match VLOOKUP.
func (t *BTree) Floor(v cell.Value) (val cell.Value, row, probes int, ok bool) {
	it := btItem{val: v, row: 1<<31 - 1}
	n := t.root
	var best btItem
	for {
		probes++
		i := search(n.items, it)
		if i > 0 {
			best = n.items[i-1]
			ok = true
		}
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	if !ok {
		return cell.Value{}, 0, probes, false
	}
	return best.val, int(best.row), probes, true
}

// Each visits all pairs in ascending order until f returns false.
func (t *BTree) Each(f func(v cell.Value, row int) bool) {
	each(t.root, f)
}

func each(n *btNode, f func(v cell.Value, row int) bool) bool {
	if n.leaf() {
		for _, it := range n.items {
			if !f(it.val, int(it.row)) {
				return false
			}
		}
		return true
	}
	for i, it := range n.items {
		if !each(n.children[i], f) {
			return false
		}
		if !f(it.val, int(it.row)) {
			return false
		}
	}
	return each(n.children[len(n.children)-1], f)
}

// Depth returns the tree height (root = 1); for balance diagnostics in
// tests.
func (t *BTree) Depth() int {
	d := 0
	for n := t.root; ; n = n.children[0] {
		d++
		if n.leaf() {
			return d
		}
	}
}
