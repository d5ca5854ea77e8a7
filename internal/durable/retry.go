package durable

import "time"

// The transient-error retry on WAL and checkpoint I/O: retryAttempts
// tries per operation, the first included, with an exponential backoff
// from retryBaseDelay capped at retryMaxDelay.
const (
	retryAttempts  = 4
	retryBaseDelay = time.Millisecond
	retryMaxDelay  = 100 * time.Millisecond
)

// retry runs fn up to retryAttempts times, backing off between attempts
// and counting each retry for telemetry and the health report. A
// permanent error (see Permanent) aborts immediately. The returned error
// is always nil or an *OpError carrying the classification and attempt
// count.
//
// saga:classifies
func (m *Manager) retry(op string, fn func() error) error {
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil {
			return nil
		}
		if Permanent(err) {
			return &OpError{Op: op, Attempts: attempt, Permanent: true, Err: err}
		}
		if attempt >= retryAttempts {
			return &OpError{Op: op, Attempts: attempt, Err: err}
		}
		m.retries.Add(1)
		m.rec.RecordDurableRetry()
		time.Sleep(retryDelay(attempt))
	}
}

// retryDelay is the backoff before retry number attempt:
// retryBaseDelay<<(attempt-1), capped at retryMaxDelay.
func retryDelay(attempt int) time.Duration {
	d := retryBaseDelay
	for i := 1; i < attempt && d < retryMaxDelay; i++ {
		d *= 2
	}
	return min(d, retryMaxDelay)
}
