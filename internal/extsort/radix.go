package extsort

import "extscc/internal/record"

// insertionMax is the bucket size at or below which the radix sort finishes
// by insertion sort.
const insertionMax = 32

// radixSort sorts recs by key in place.  It is an MSD radix sort over the
// key's 16 bytes, most significant first, that permutes every bucket in place
// by cycle leading: the American flag sort of McIlroy, Bostic & McIlroy,
// "Engineering Radix Sort" (Computing Systems 6(1), 1993).  One pass XORs
// every key against the first to find the bytes that vary, and only those are
// bucketed, as IPS²Ra does (Axtmann et al., arXiv:2009.13569).  Buckets of
// insertionMax or fewer records finish by insertion sort.  Beyond the slice
// itself the sort needs only two 256-entry tables per byte level, so at most
// 16 levels of stack.  It is not stable.
func radixSort[T any](recs []T, key func(T) record.Key) {
	if len(recs) <= insertionMax {
		insertionSort(recs, key)
		return
	}
	first := key(recs[0])
	var diff record.Key
	for _, r := range recs[1:] {
		k := key(r)
		diff.Hi |= k.Hi ^ first.Hi
		diff.Lo |= k.Lo ^ first.Lo
	}
	var varying [16]uint8
	n := 0
	for pos := uint8(0); pos < 16; pos++ {
		if keyByte(diff, pos) != 0 {
			varying[n] = pos
			n++
		}
	}
	if n > 0 {
		flagSort(recs, key, varying[:n])
	}
}

// keyByte returns byte pos of k, counting from the most significant byte of
// Hi (0) to the least significant byte of Lo (15).
func keyByte(k record.Key, pos uint8) uint8 {
	if pos < 8 {
		return uint8(k.Hi >> (56 - 8*pos))
	}
	return uint8(k.Lo >> (56 - 8*(pos-8)))
}

// flagSort sorts recs, whose keys agree on every byte before levels[0], by
// the key bytes at the positions in levels and then by whole keys.
func flagSort[T any](recs []T, key func(T) record.Key, levels []uint8) {
	pos := levels[0]
	// head[b] is the next unplaced slot of bucket b and end[b] its end.
	var head, end [256]int
	for _, r := range recs {
		end[keyByte(key(r), pos)]++
	}
	sum := 0
	for b := range end {
		head[b] = sum
		sum += end[b]
		end[b] = sum
	}
	for b := range head {
		for head[b] < end[b] {
			r := recs[head[b]]
			d := keyByte(key(r), pos)
			for int(d) != b {
				r, recs[head[d]] = recs[head[d]], r
				head[d]++
				d = keyByte(key(r), pos)
			}
			recs[head[b]] = r
			head[b]++
		}
	}
	if len(levels) == 1 {
		return
	}
	start := 0
	for _, stop := range end {
		switch bucket := recs[start:stop]; {
		case len(bucket) <= 1:
		case len(bucket) <= insertionMax:
			insertionSort(bucket, key)
		default:
			flagSort(bucket, key, levels[1:])
		}
		start = stop
	}
}

// insertionSort sorts recs by key.
func insertionSort[T any](recs []T, key func(T) record.Key) {
	for i := 1; i < len(recs); i++ {
		r := recs[i]
		k := key(r)
		j := i
		for ; j > 0 && k.Less(key(recs[j-1])); j-- {
			recs[j] = recs[j-1]
		}
		recs[j] = r
	}
}
