package core

// ScratchOf returns the pooled scratch tx holds: nil before its first
// use and after the transaction has finished.
func ScratchOf(tx *Txn) *Scratch { return tx.scratch }

// IndexLen returns the size of tx's footprint index: 0 while the
// footprint is scanned.
func IndexLen(tx *Txn) int {
	if tx.scratch == nil {
		return 0
	}
	return len(tx.scratch.index)
}

// Entry returns the footprint position of k.
func Entry(tx *Txn, k string) int { return tx.entry(k) }

// BackendOf returns the backend tx runs on.
func BackendOf(tx *Txn) Backend { return tx.backend }
