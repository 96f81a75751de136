package sim

import "time"

// StartHeartbeat matches the embedded allowlist entry "tcp.go
// StartHeartbeat" (file base name + function): no diagnostic despite the
// wall-clock reads.
func StartHeartbeat() time.Time {
	time.Sleep(time.Millisecond)
	return time.Now()
}

// notAllowed is in tcp.go but not in the allowlist: still flagged — the
// allowlist is per-function, not per-file.
func notAllowed() time.Time {
	return time.Now() // want `wall-clock call time.Now`
}
