module ohminer/bench

go 1.22

require ohminer v0.0.0

replace ohminer => ../
