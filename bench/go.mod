module cloudlens/bench

go 1.22

require cloudlens v0.0.0

replace cloudlens => ../
