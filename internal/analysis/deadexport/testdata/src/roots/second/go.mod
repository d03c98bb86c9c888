module webbrief/internal/analysis/deadexport/testdata/src/roots/second

go 1.22

require webbrief v0.0.0

replace webbrief => ../../../../../../../
