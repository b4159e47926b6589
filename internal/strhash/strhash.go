// Package strhash provides the string hash shared by every component
// that partitions keys: the coordinator's server selection and the
// stripe selection of the key map under both engines
// (internal/keyspace). One definition keeps them in agreement.
package strhash

// FNV1a returns the 32-bit FNV-1a hash of s.
func FNV1a(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}

// Partition maps key to one of n partitions. Coordinators route by it,
// and whatever has to agree with their routing — the fault bed's
// recovery writes, the failover probe's choice of key — calls it too.
func Partition(key string, n int) int {
	return int(FNV1a(key) % uint32(n))
}

// FNV1a64 returns the 64-bit FNV-1a hash of s. The transport and fault
// layers use it to derive per-link seeds from link names, so every link
// gets an independent random stream regardless of dial order.
func FNV1a64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Mix64 is the splitmix64 finalizer: a cheap bijective mixer that turns
// structured inputs (seed ^ link hash ^ counter) into well-distributed
// seeds for independent random streams.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
