module webbrief/bench

go 1.22

require webbrief v0.0.0

replace webbrief => ../
