module imapreduce/bench

go 1.24

require imapreduce v0.0.0

replace imapreduce => ../
