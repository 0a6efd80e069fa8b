//go:build !amd64 || purego

package rf

func walk8(nodes []node, keys []int32, roots *[lanes]int32) int32 { return walk8Go(nodes, keys, roots) }
