package core

// SetClaimHook installs fn as s's claim hook (see Supervisor.claimHook).
// Install it before the first Submit: a worker reads it after a dequeue.
func SetClaimHook(s *Supervisor, fn func(gen uint64, claimed bool)) { s.claimHook = fn }

// Restart retires generation gen and brings up its replacement, as the
// watchdog does.
func Restart(s *Supervisor, gen uint64, cause string) { s.restart(gen, cause) }
