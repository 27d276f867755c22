package core

// FleetConfigCheck exposes the HELLO config fingerprint to the external
// tests of the agent process wiring.
func FleetConfigCheck(s *System) uint64 { return s.fleetConfigCheck() }
