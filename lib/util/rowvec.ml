type t = {
  mutable idx : int array;  (* strictly increasing over the first n slots *)
  mutable v : float array;
  mutable n : int;
}

let create ?(cap = 8) () =
  let cap = Int.max cap 1 in
  { idx = Array.make cap 0; v = Array.make cap 0.0; n = 0 }

let nnz r = r.n

let ensure r cap =
  if Array.length r.idx < cap then begin
    let cap' = Int.max cap (2 * Array.length r.idx) in
    let idx = Array.make cap' 0 and v = Array.make cap' 0.0 in
    Array.blit r.idx 0 idx 0 r.n;
    Array.blit r.v 0 v 0 r.n;
    r.idx <- idx;
    r.v <- v
  end

let copy r =
  {
    idx = Array.sub r.idx 0 (Int.max r.n 1);
    v = Array.sub r.v 0 (Int.max r.n 1);
    n = r.n;
  }

let of_pairs idx v =
  let k = Array.length idx in
  if Array.length v <> k then invalid_arg "Rowvec.of_pairs: length mismatch";
  let order = Array.init k Fun.id in
  Array.stable_sort (fun a b -> Int.compare idx.(a) idx.(b)) order;
  let r = create ~cap:(Int.max k 1) () in
  Array.iter
    (fun s ->
      let j = idx.(s) and x = v.(s) in
      if r.n > 0 && r.idx.(r.n - 1) = j then r.v.(r.n - 1) <- r.v.(r.n - 1) +. x
      else begin
        r.idx.(r.n) <- j;
        r.v.(r.n) <- x;
        r.n <- r.n + 1
      end)
    order;
  (* squeeze out entries that summed to zero *)
  let w = ref 0 in
  for s = 0 to r.n - 1 do
    if Float.abs r.v.(s) > 0.0 then begin
      r.idx.(!w) <- r.idx.(s);
      r.v.(!w) <- r.v.(s);
      incr w
    end
  done;
  r.n <- !w;
  r

let of_dense a =
  let width = Array.length a in
  let count = ref 0 in
  for j = 0 to width - 1 do
    if Float.abs (Array.unsafe_get a j) > 0.0 then incr count
  done;
  let r = create ~cap:(Int.max !count 1) () in
  for j = 0 to width - 1 do
    let x = Array.unsafe_get a j in
    if Float.abs x > 0.0 then begin
      r.idx.(r.n) <- j;
      r.v.(r.n) <- x;
      r.n <- r.n + 1
    end
  done;
  r

let of_sorted idx v n =
  if n = 0 then create ~cap:1 () else { idx; v; n }

(* Position of index [j] in [r.idx], or [-1]. Routing rows average a
   handful of entries, where a forward scan beats binary search (fewer
   mispredicted branches); long rows take the log path. *)
let find r j =
  if r.n <= 16 then begin
    let i = ref 0 in
    while !i < r.n && Array.unsafe_get r.idx !i < j do
      incr i
    done;
    if !i < r.n && Array.unsafe_get r.idx !i = j then !i else -1
  end
  else begin
    let lo = ref 0 and hi = ref (r.n - 1) and res = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let c = Array.unsafe_get r.idx mid in
      if c = j then begin
        res := mid;
        lo := !hi + 1
      end
      else if c < j then lo := mid + 1
      else hi := mid - 1
    done;
    !res
  end

let get r j =
  let s = find r j in
  if s < 0 then 0.0 else r.v.(s)

let remove_at r s =
  Array.blit r.idx (s + 1) r.idx s (r.n - s - 1);
  Array.blit r.v (s + 1) r.v s (r.n - s - 1);
  r.n <- r.n - 1

let clear r j =
  let s = find r j in
  if s >= 0 then remove_at r s

let set r j x =
  let s = find r j in
  if s >= 0 then begin
    if Float.abs x <= 0.0 then remove_at r s else r.v.(s) <- x
  end
  else if Float.abs x > 0.0 then begin
    ensure r (r.n + 1);
    (* insertion point: first entry with index > j *)
    let p = ref r.n in
    while !p > 0 && r.idx.(!p - 1) > j do
      decr p
    done;
    Array.blit r.idx !p r.idx (!p + 1) (r.n - !p);
    Array.blit r.v !p r.v (!p + 1) (r.n - !p);
    r.idx.(!p) <- j;
    r.v.(!p) <- x;
    r.n <- r.n + 1
  end

let scale r k =
  let w = ref 0 in
  for s = 0 to r.n - 1 do
    let x = r.v.(s) *. k in
    if Float.abs x > 0.0 then begin
      r.idx.(!w) <- r.idx.(s);
      r.v.(!w) <- x;
      incr w
    end
  done;
  r.n <- !w

let merged ~skip ~y ~x factor =
  (* Fresh row [y + factor * x] with index [skip] removed, built in one
     merge pass into one exactly-sized buffer. The failure-fold hot path
     builds hundreds of small result rows per step, so the whole kernel
     lives here with direct field access — routing a raw
     view out through an accessor costs a tuple allocation per row,
     which showed up as ~15% of the fold. Bit-identity with a dense
     update: [y]-only entries are copied verbatim, [x]-only entries are
     [factor *. x_j] (a dense loop computes [0.0 +. (factor *. x_j)],
     the same bits when [x] never stores [-0.0]), collisions are
     [y_j +. (factor *. x_j)], all in ascending index order. *)
  let yi = y.idx and yv = y.v and yn = y.n in
  let xi = x.idx and xv = x.v and xn = x.n in
  let cap = Int.max (yn + xn) 1 in
  let idx = Array.make cap 0 and v = Array.make cap 0.0 in
  let w = ref 0 and a = ref 0 and b = ref 0 in
  while !a < yn && !b < xn do
    let ja = Array.unsafe_get yi !a and jb = Array.unsafe_get xi !b in
    if ja < jb then begin
      if ja <> skip then begin
        Array.unsafe_set idx !w ja;
        Array.unsafe_set v !w (Array.unsafe_get yv !a);
        incr w
      end;
      incr a
    end
    else if jb < ja then begin
      let value = factor *. Array.unsafe_get xv !b in
      if jb <> skip && Float.abs value > 0.0 then begin
        Array.unsafe_set idx !w jb;
        Array.unsafe_set v !w value;
        incr w
      end;
      incr b
    end
    else begin
      let value = Array.unsafe_get yv !a +. (factor *. Array.unsafe_get xv !b) in
      if ja <> skip && Float.abs value > 0.0 then begin
        Array.unsafe_set idx !w ja;
        Array.unsafe_set v !w value;
        incr w
      end;
      incr a;
      incr b
    end
  done;
  while !a < yn do
    let ja = Array.unsafe_get yi !a in
    if ja <> skip then begin
      Array.unsafe_set idx !w ja;
      Array.unsafe_set v !w (Array.unsafe_get yv !a);
      incr w
    end;
    incr a
  done;
  while !b < xn do
    let jb = Array.unsafe_get xi !b in
    let value = factor *. Array.unsafe_get xv !b in
    if jb <> skip && Float.abs value > 0.0 then begin
      Array.unsafe_set idx !w jb;
      Array.unsafe_set v !w value;
      incr w
    end;
    incr b
  done;
  if !w = 0 then create ~cap:1 () else { idx; v; n = !w }

let scatter_add ?(scale = 1.0) r ~into =
  for s = 0 to r.n - 1 do
    let j = Array.unsafe_get r.idx s in
    Array.unsafe_set into j
      (Array.unsafe_get into j +. (scale *. Array.unsafe_get r.v s))
  done

let indices r = r.idx
let values r = r.v

let iter f r =
  for s = 0 to r.n - 1 do
    f (Array.unsafe_get r.idx s) (Array.unsafe_get r.v s)
  done

let dot r dense =
  let acc = ref 0.0 in
  for s = 0 to r.n - 1 do
    acc := !acc +. (Array.unsafe_get r.v s *. Array.unsafe_get dense (Array.unsafe_get r.idx s))
  done;
  !acc

let[@inline] same_bits x y = Int64.bits_of_float x = Int64.bits_of_float y

(* Loops over refs and fields only: no closure, no boxed float. *)
let bits_equal a b =
  let i = ref 0 and j = ref 0 and ok = ref true in
  while !ok && (!i < a.n || !j < b.n) do
    let ka = if !i < a.n then a.idx.(!i) else max_int
    and kb = if !j < b.n then b.idx.(!j) else max_int in
    if ka = kb then begin
      ok := same_bits a.v.(!i) b.v.(!j);
      incr i;
      incr j
    end
    else if ka < kb then begin
      ok := same_bits a.v.(!i) 0.0;
      incr i
    end
    else begin
      ok := same_bits b.v.(!j) 0.0;
      incr j
    end
  done;
  !ok

let to_dense width r =
  let out = Array.make width 0.0 in
  iter (fun j x -> out.(j) <- x) r;
  out
