package index

import "fmt"

// check verifies the structural invariants and returns the first
// violation, or nil: items strictly ascend in key order across the whole
// tree, every node's size is its subtree's item count, every internal node
// has one more child than items, every non-root node holds between
// minItems and order items, and all leaves sit at the same depth. Tests
// call it after every operation.
func (t *BTree) check() error {
	var prev *btItem
	leafDepth := -1
	var walk func(n *btNode, depth int) (int, error)
	walk = func(n *btNode, depth int) (int, error) {
		if n != t.root && (len(n.items) < t.minItems() || len(n.items) > t.order) {
			return 0, fmt.Errorf("node at depth %d holds %d items, want %d..%d", depth, len(n.items), t.minItems(), t.order)
		}
		visit := func(it *btItem) error {
			if prev != nil && !less(*prev, *it) {
				return fmt.Errorf("items out of order: %v row %d before %v row %d", prev.val, prev.row, it.val, it.row)
			}
			prev = it
			return nil
		}
		size := len(n.items)
		if n.leaf() {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				return 0, fmt.Errorf("leaf at depth %d, another at %d", depth, leafDepth)
			}
			for i := range n.items {
				if err := visit(&n.items[i]); err != nil {
					return 0, err
				}
			}
		} else {
			if len(n.children) != len(n.items)+1 {
				return 0, fmt.Errorf("internal node has %d items and %d children", len(n.items), len(n.children))
			}
			for i, c := range n.children {
				sub, err := walk(c, depth+1)
				if err != nil {
					return 0, err
				}
				size += sub
				if i < len(n.items) {
					if err := visit(&n.items[i]); err != nil {
						return 0, err
					}
				}
			}
		}
		if n.size != size {
			return 0, fmt.Errorf("node at depth %d records size %d, holds %d", depth, n.size, size)
		}
		return size, nil
	}
	_, err := walk(t.root, 0)
	return err
}
