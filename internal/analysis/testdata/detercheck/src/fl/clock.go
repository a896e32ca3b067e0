package fl

import "time"

// retry sleeps between round attempts: a wait fl must leave to the
// transport.
func retry(d time.Duration) {
	time.Sleep(d) // want `time.Sleep waits on the wall clock, and fl owns no timer`
}

// timers schedules on the wall clock every other way time offers.
func timers(d time.Duration) {
	<-time.After(d)              // want `time.After waits on the wall clock`
	time.AfterFunc(d, func() {}) // want `time.AfterFunc waits on the wall clock`
	t := time.NewTimer(d)        // want `time.NewTimer waits on the wall clock`
	t.Stop()
	k := time.NewTicker(d) // want `time.NewTicker waits on the wall clock`
	k.Stop()
	<-time.Tick(d)      // want `time.Tick waits on the wall clock`
	sleep := time.Sleep // want `time.Sleep waits on the wall clock`
	sleep(d)
}

// measure only reads the clock, and time.Time's After method compares
// two instants: both are fine.
func measure(deadline time.Time) (time.Duration, bool) {
	start := time.Now()
	return time.Since(start), start.After(deadline)
}
