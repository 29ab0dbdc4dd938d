(* calib: a fixed amount of work that gauges how fast the host runs right
   now.  The shared host this benchmark was tuned on changes speed for
   minutes at a time; [run.py] runs this between the measured passes and
   divides each pass's wall time by the calibration next to it, so that a
   slow phase of the host slows both and cancels out.

   It links no library of the repository, so a change to the program can
   never change it.  Its three parts mirror what the workloads spend
   their time on: a shortest-path closure over small int matrices (the
   int DBM kernel) and over normalized fractions (the rational one),
   hashing and storing fresh arrays with the GC that follows (the zone
   store), and dependent loads over a working set larger than the cache
   (a big exploration's heap).

     calib.exe      prints {"calib_s": SECONDS} *)

let seed = ref 12345

let rand () =
  seed := (!seed * 1103515245 + 12345) land 0x3fffffff;
  !seed

let closure ~dim ~rounds =
  let m = Array.init (dim * dim) (fun _ -> rand () land 1023) in
  let acc = ref 0 in
  for _ = 1 to rounds do
    for i = 0 to (dim * dim) - 1 do
      m.(i) <- (m.(i) + rand ()) land 1023
    done;
    for k = 0 to dim - 1 do
      for i = 0 to dim - 1 do
        let ik = m.((i * dim) + k) in
        for j = 0 to dim - 1 do
          let v = ik + m.((k * dim) + j) and p = (i * dim) + j in
          if v < m.(p) then m.(p) <- v
        done
      done
    done;
    acc := !acc + m.(dim + 1)
  done;
  !acc

(* fractions normalized by gcd, boxed like [Tm_base.Rational.t] *)
type q = { num : int; den : int }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let q num den =
  let g = gcd num den in
  if g = 1 then { num; den } else { num = num / g; den = den / g }

let q_add a b =
  if a.den = b.den then q (a.num + b.num) a.den
  else q ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)

let q_lt a b = a.num * b.den < b.num * a.den

let rational_closure ~dim ~rounds =
  let fresh old = q ((rand () land 255) + (old land 255)) (1 + (rand () land 3)) in
  let m = Array.init (dim * dim) (fun _ -> fresh 0) in
  let acc = ref 0 in
  for _ = 1 to rounds do
    for i = 0 to (dim * dim) - 1 do
      m.(i) <- fresh m.(i).num
    done;
    for k = 0 to dim - 1 do
      for i = 0 to dim - 1 do
        let ik = m.((i * dim) + k) in
        for j = 0 to dim - 1 do
          let v = q_add ik m.((k * dim) + j) and p = (i * dim) + j in
          if q_lt v m.(p) then m.(p) <- v
        done
      done
    done;
    acc := !acc + m.(dim + 1).num
  done;
  !acc

let store ~entries ~width =
  let h = Hashtbl.create 1024 in
  for i = 1 to entries do
    let a = Array.init width (fun j -> ((i * 7) + (j * (rand () land 3))) land 255) in
    if not (Hashtbl.mem h a) then Hashtbl.add h a i
  done;
  Hashtbl.length h

let chase ~words ~steps =
  (* Sattolo's shuffle: one cycle through every word, so the walk never
     settles into a short loop that fits in the cache *)
  let a = Array.init words Fun.id in
  for i = words - 1 downto 1 do
    let j = rand () mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  let p = ref 0 in
  for _ = 1 to steps do
    p := a.(!p)
  done;
  !p

let () =
  let t0 = Monotonic_clock.now () in
  let r =
    closure ~dim:27 ~rounds:6000
    + rational_closure ~dim:17 ~rounds:1500
    + store ~entries:150_000 ~width:100
    + chase ~words:(4 * 1024 * 1024) ~steps:3_000_000
  in
  let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9 in
  ignore (Sys.opaque_identity r);
  Printf.printf "{\"calib_s\": %.9f}\n%!" dt
