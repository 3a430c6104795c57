let flag = Atomic.make true
let on () = Atomic.get flag
let set b = Atomic.set flag b
