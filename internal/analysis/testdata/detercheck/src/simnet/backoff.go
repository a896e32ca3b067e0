package simnet

import "time"

// backoff waits between redials: a transport owns its waits, so the timer
// rule does not reach simnet.
func backoff(d time.Duration) {
	time.Sleep(d)
}
