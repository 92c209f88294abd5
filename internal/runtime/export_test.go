package runtime

// GateFirst exposes the unit-building lever to the external test package.
var GateFirst = gateFirst
