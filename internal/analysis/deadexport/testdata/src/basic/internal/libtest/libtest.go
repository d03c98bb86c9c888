// Package libtest is test support (named …test, as net/http/httptest is):
// tests are its only callers by design, so it is not a subject.
package libtest

func Helper() {}
