package keynote

import "hash/maphash"

// cowShards is the number of shards a cowMap splits its keys over.
const cowShards = 256

var cowSeed = maphash.MakeSeed()

// cowMap is a copy-on-write map split into cowShards shards. A clone
// shares every shard with its source, and a shard is copied on the
// clone's first write to it, so publishing a changed snapshot costs the
// shards the change touched, not the size of the map. Only the newest
// clone is ever written: older copies belong to published snapshots and
// are read-only.
type cowMap[K ~string, V any] struct {
	shards [cowShards]map[K]V
	owned  [cowShards]bool // shards this copy made and may write in place
}

func cowShard[K ~string](k K) int {
	return int(maphash.String(cowSeed, string(k)) % cowShards)
}

func (m *cowMap[K, V]) get(k K) V { return m.shards[cowShard(k)][k] }

// clone returns a copy that shares every shard with m and owns none.
func (m *cowMap[K, V]) clone() cowMap[K, V] { return cowMap[K, V]{shards: m.shards} }

// writable returns k's shard, copying it first if this copy does not
// own it yet.
func (m *cowMap[K, V]) writable(k K) map[K]V {
	i := cowShard(k)
	if !m.owned[i] {
		s := make(map[K]V, len(m.shards[i])+1)
		for k, v := range m.shards[i] {
			s[k] = v
		}
		m.shards[i], m.owned[i] = s, true
	}
	return m.shards[i]
}

func (m *cowMap[K, V]) set(k K, v V) { m.writable(k)[k] = v }

func (m *cowMap[K, V]) del(k K) { delete(m.writable(k), k) }
