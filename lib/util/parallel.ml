let domains = Pool.domains
let set_domains = Pool.set_domains
let map f a = Pool.run_indexed (Array.length a) (fun i -> f a.(i))
let init = Pool.run_indexed
