module sbft/benchmark

go 1.24

require sbft v0.0.0

replace sbft => ../
