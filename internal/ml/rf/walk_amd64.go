//go:build amd64 && !purego

package rf

// walk8 is walk8Go in assembly (walk_amd64.s): the eight lane indices
// stay in registers, a step picks its child with CMOVLGE and reads the
// node array and the keys without bounds checks — Train builds the
// forest and UnmarshalBinary validates it, so every index is in range
// and every split's right child lies above it. CMOV is baseline x86-64:
// there is nothing to detect and no switch; `-tags purego` builds the
// Go walk instead.
//
//go:noescape
func walk8(nodes []node, keys []int32, roots *[lanes]int32) int32
