package basestore

// IOBufSize and TblMagic expose the table I/O buffer size and file magic to
// the external tests that size values and memory ceilings against the one
// and forge table files with the other.
const IOBufSize = ioBufSize

var TblMagic = tblMagic
