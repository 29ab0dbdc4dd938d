(* Fast DBM kernel: flat array, in-place destructive core, persistent
   API on top.

   Compared with the reference kernel ({!Dbm_ref}) this kernel
   - keeps a [Scratch] matrix that whole edge pipelines mutate in
     place, so a guard+reset+up+invariant+extrapolate chain costs two
     array copies (load and freeze) instead of one per operation;
   - answers [sat] in O(1) on a canonical matrix: adding
     [x_i - x_j <= b] empties the zone iff the cycle [b + m[j][i]]
     rejects 0, so no copy or quadratic pass is needed;
   - builds [zero]/[top] from their closed forms, which are already
     canonical, skipping the O(n^3) Floyd-Warshall of the reference;
   - memoizes the structural hash per zone and short-circuits [equal]
     and [includes] on physical equality, which the hash-consed store
     in {!Reach} makes the common case.

   Every optimisation here is checked op-for-op against {!Dbm_ref} by
   test/test_dbm_diff.ml. *)

module Rational = Tm_base.Rational
module Metrics = Tm_obs.Metrics

(* Per-operation counters; handles are module-level so each DBM
   operation pays one field increment.  Scratch ops count too: dbm.ops
   measures arithmetic work, not API style. *)
let op name = Metrics.counter "dbm.ops" ~labels:[ ("op", name) ]
let c_canonicalize = op "canonicalize"
let c_constrain = op "constrain"
let c_up = op "up"
let c_reset = op "reset"
let c_free = op "free"
let c_remap = op "remap"
let c_intersect = op "intersect"
let c_includes = op "includes"
let c_extrapolate = op "extrapolate"
let c_sat = op "sat"
let c_minimize = op "minimize"
let c_min_subsumes = op "min_subsumes"

type bnd = Dbm_bound.t = Lt of Rational.t | Le of Rational.t | Inf

let bnd_compare = Dbm_bound.compare
let bnd_min = Dbm_bound.min_b
let bnd_add = Dbm_bound.add
let bnd_neg_ok = Dbm_bound.neg_ok

(* [hmemo] caches the structural hash ([min_int] = not yet computed);
   persistent values are immutable apart from this memo.  [off] is the
   start of this zone's n*n slice inside [m]: zones frozen into an
   {!Arena} share one large chunk array (off > 0 possible), heap zones
   own a exactly-sized array at off 0. *)
type t = { n : int; m : bnd array; off : int; empty : bool; mutable hmemo : int }

let name = "fast"
let dim z = z.n
let get z i j = z.m.(z.off + (i * z.n) + j)
let is_empty z = z.empty
let mk n m empty = { n; m; off = 0; empty; hmemo = min_int }

(* Copy a zone's payload out to a fresh exactly-sized array (the
   in-place core always works at offset 0 on owned arrays). *)
let dup z =
  if z.off = 0 && Array.length z.m = z.n * z.n then Array.copy z.m
  else Array.sub z.m z.off (z.n * z.n)

(* ------------------------------------------------------------------ *)
(* In-place core: all operations work directly on a flat array and
   assume a canonical, nonempty input unless stated otherwise.         *)

(* Floyd-Warshall tightening; detects emptiness via negative diagonal.
   Only needed after [intersect]/[extrapolate]; the single-constraint
   path uses [tighten_arr]. *)
let canonicalize_arr n m =
  Metrics.incr c_canonicalize;
  (* Floyd–Warshall with the [i -> k] hop hoisted: an [Inf] hop can
     tighten nothing through [k], so the inner loop is skipped — under
     LU widening (inactive clocks are all-[Inf] rows) this saves most
     of the n^3 work on the per-edge re-closure path. *)
  (try
     for k = 0 to n - 1 do
       let rowk = k * n in
       for i = 0 to n - 1 do
         let rowi = i * n in
         (match m.(rowi + k) with
         | Inf -> ()
         | ik when k <> i ->
             for j = 0 to n - 1 do
               match m.(rowk + j) with
               | Inf -> ()
               | kj ->
                   let via = bnd_add ik kj in
                   if bnd_compare via m.(rowi + j) < 0 then
                     m.(rowi + j) <- via
             done
         | _ -> ());
         if not (bnd_neg_ok m.(rowi + i)) then raise Exit
       done
     done
   with Exit -> m.(0) <- Lt Rational.zero);
  not (bnd_neg_ok m.(0))

(* Partial re-canonicalization after adding x_i - x_j <= b (i <> j) to
   a canonical nonempty matrix where the constraint is known both
   tightening and satisfiable: every entry improves only through the
   new edge, so one O(n^2) pass x -> i -> [b] -> j -> y suffices.
   In-place is safe: the pass never tightens row j or column i (their
   shortest paths through the new edge close a nonnegative cycle), so
   all values it reads are originals. *)
let tighten_arr n m i j b =
  let rowj = j * n in
  for x = 0 to n - 1 do
    let x_to_i = m.((x * n) + i) in
    if x_to_i <> Inf then begin
      let via = bnd_add x_to_i b in
      let rowx = x * n in
      for y = 0 to n - 1 do
        let jy = m.(rowj + y) in
        if jy <> Inf then begin
          let cand = bnd_add via jy in
          if bnd_compare cand m.(rowx + y) < 0 then m.(rowx + y) <- cand
        end
      done
    end
  done

(* Emptiness of [z /\ (x_i - x_j <= b)] for canonical nonempty m in
   O(1): the only candidate negative cycle is i -> j (new edge) -> i.
   Takes the slice offset so it works on arena zones directly. *)
let unsat_with n m off i j b =
  not (bnd_neg_ok (bnd_add b m.(off + (j * n) + i)))

let up_arr n m =
  for i = 1 to n - 1 do
    m.(i * n) <- Inf
  done

(* In-place is safe: writes hit row x / column x only, reads come from
   row 0 / column 0, and the overlap cells m[0][x], m[x][0] are written
   at j = 0 before any j > 0 read (which skips j = x anyway). *)
let reset_arr n m x =
  for j = 0 to n - 1 do
    if j <> x then begin
      m.((x * n) + j) <- m.(j);
      (* x_x - x_j = 0 - x_j *)
      m.((j * n) + x) <- m.(j * n)
    end
  done;
  m.((x * n) + x) <- Le Rational.zero

let free_arr n m x =
  for j = 0 to n - 1 do
    if j <> x then begin
      m.((x * n) + j) <- Inf;
      m.((j * n) + x) <- m.(j * n)
    end
  done

(* LU relaxation: entry (i, j) with constant c goes to Inf when
   c > lower.(i), else to Lt (-upper.(j)) when c < -upper.(j); a [None]
   bound is -inf and wipes unconditionally.  Comparisons are on the
   constant only (strictness does not matter), exactly as in the int
   kernel, so the differential harness can demand bit-equal results.
   Returns whether anything changed. *)
(* Per-clock [Lt (-U_j)] replacement bounds, hoisted out of the sweep:
   [Inf] encodes a missing upper bound (wipe the entry).  Sharing one
   bound value per clock keeps the sweep allocation-free — the scratch
   caches this array per exploration under the physical identity of
   [upper]. *)
let lu_negs_into n upper negs =
  for j = 0 to n - 1 do
    negs.(j) <-
      (match upper.(j) with None -> Inf | Some u -> Lt (Rational.neg u))
  done

let lu_negs n upper =
  let negs = Array.make n Inf in
  lu_negs_into n upper negs;
  negs

let extrapolate_lu_wide n m lower nlt =
  let changed = ref false in
  for i = 0 to n - 1 do
    let row = i * n in
    for j = 0 to n - 1 do
      if i <> j then
        match m.(row + j) with
        | Inf -> ()
        | Le c | Lt c -> (
            let wipe =
              match lower.(i) with
              | None -> true
              | Some l -> Rational.compare c l > 0
            in
            if wipe then begin
              m.(row + j) <- Inf;
              changed := true
            end
            else
              match nlt.(j) with
              | Le _ -> assert false
              | Inf ->
                  m.(row + j) <- Inf;
                  changed := true
              | Lt nu as b ->
                  if Rational.compare c nu < 0 then begin
                    m.(row + j) <- b;
                    changed := true
                  end)
    done
  done;
  !changed

(* Relax entries beyond the max constant; returns whether anything
   changed (in which case the matrix needs re-closing). *)
let extrapolate_arr n m mc neg_mc =
  let changed = ref false in
  for k = 0 to (n * n) - 1 do
    match m.(k) with
    | Inf -> ()
    | Le c | Lt c ->
        if Rational.compare c mc > 0 then begin
          m.(k) <- Inf;
          changed := true
        end
        else if Rational.compare c neg_mc < 0 then begin
          m.(k) <- Lt neg_mc;
          changed := true
        end
  done;
  !changed

(* ------------------------------------------------------------------ *)
(* Persistent API.                                                     *)

(* The closed forms of [zero] and [top] are already canonical — no
   Floyd-Warshall needed. *)
let zero n =
  if n < 1 then invalid_arg "Dbm.zero";
  mk n (Array.make (n * n) (Le Rational.zero)) false

let top n =
  if n < 1 then invalid_arg "Dbm.top";
  let m = Array.make (n * n) Inf in
  for i = 0 to n - 1 do
    m.((i * n) + i) <- Le Rational.zero;
    (* reference minus any clock is <= 0: clocks are nonnegative *)
    m.(i) <- Le Rational.zero
  done;
  mk n m false

let constrain z i j b =
  Metrics.incr c_constrain;
  if i < 0 || i >= z.n || j < 0 || j >= z.n then invalid_arg "Dbm.constrain";
  if z.empty then z
  else if bnd_compare b (get z i j) >= 0 then z
  else if unsat_with z.n z.m z.off i j b then
    (* Keep the untouched matrix; [equal]/[hash]/[includes] never look
       at the entries of an empty zone. *)
    { n = z.n; m = z.m; off = z.off; empty = true; hmemo = 0 }
  else begin
    (* i = j would require b < Le 0, which [unsat_with] already caught
       (m[i][i] = Le 0), so the tightening pass only sees i <> j. *)
    let m = dup z in
    tighten_arr z.n m i j b;
    mk z.n m false
  end

let up z =
  Metrics.incr c_up;
  if z.empty then z
  else begin
    let m = dup z in
    up_arr z.n m;
    mk z.n m false
  end

let reset z x =
  Metrics.incr c_reset;
  if x < 1 || x >= z.n then invalid_arg "Dbm.reset";
  if z.empty then z
  else begin
    let m = dup z in
    reset_arr z.n m x;
    mk z.n m false
  end

let free z x =
  Metrics.incr c_free;
  if x < 1 || x >= z.n then invalid_arg "Dbm.free";
  if z.empty then z
  else begin
    let m = dup z in
    free_arr z.n m x;
    mk z.n m false
  end

let includes big small =
  Metrics.incr c_includes;
  if big.n <> small.n then invalid_arg "Dbm.includes";
  if big == small then true
  else if small.empty then true
  else if big.empty then false
  else begin
    let len = big.n * big.n in
    let bo = big.off and so = small.off in
    let k = ref 0 in
    let ok = ref true in
    while !ok && !k < len do
      if bnd_compare small.m.(so + !k) big.m.(bo + !k) > 0 then ok := false;
      incr k
    done;
    !ok
  end

let intersect a b =
  Metrics.incr c_intersect;
  if a.n <> b.n then invalid_arg "Dbm.intersect";
  if a == b then a
  else if a.empty then a
  else if b.empty then b
  else begin
    let m =
      Array.init (a.n * a.n) (fun k -> bnd_min a.m.(a.off + k) b.m.(b.off + k))
    in
    let empty = canonicalize_arr a.n m in
    mk a.n m empty
  end

let extrapolate mc z =
  Metrics.incr c_extrapolate;
  if z.empty then z
  else begin
    let m = dup z in
    if not (extrapolate_arr z.n m mc (Rational.neg mc)) then z
    else begin
      (* Extrapolation relaxes a nonempty zone, so it stays nonempty. *)
      ignore (canonicalize_arr z.n m);
      mk z.n m false
    end
  end

let extrapolate_lu ~lower ~upper z =
  Metrics.incr c_extrapolate;
  if z.empty then z
  else begin
    let m = dup z in
    if not (extrapolate_lu_wide z.n m lower (lu_negs z.n upper)) then z
    else begin
      (* LU extrapolation only relaxes entries, so nonempty stays
         nonempty. *)
      ignore (canonicalize_arr z.n m);
      mk z.n m false
    end
  end

let sat z i j b =
  Metrics.incr c_sat;
  if i < 0 || i >= z.n || j < 0 || j >= z.n then invalid_arg "Dbm.sat";
  (not z.empty) && not (unsat_with z.n z.m z.off i j b)

let loose z =
  if z.empty then 0
  else begin
    let acc = ref 0 in
    for k = z.off to z.off + (z.n * z.n) - 1 do
      if z.m.(k) = Inf then incr acc
    done;
    !acc
  end

(* One hash recurrence for persistent zones and in-place scratches —
   [Scratch.hash] feeding [Hstore.intern_scratch] must produce exactly
   the value the frozen zone would memoize, or the hash-consed store
   would miss genuine duplicates. *)
let hash_arr n m off =
  let h = ref n in
  for k = off to off + (n * n) - 1 do
    h := (!h * 31) + Dbm_bound.hash m.(k)
  done;
  if !h = min_int then min_int + 1 else !h

let hash z =
  if z.empty then 0
  else if z.hmemo <> min_int then z.hmemo
  else begin
    let h = hash_arr z.n z.m z.off in
    z.hmemo <- h;
    h
  end

let equal a b =
  a == b
  || a.n = b.n && a.empty = b.empty
     && (a.empty
        || (a.hmemo = min_int || b.hmemo = min_int || a.hmemo = b.hmemo)
           &&
           let len = a.n * a.n in
           let ao = a.off and bo = b.off in
           let k = ref 0 in
           let eq = ref true in
           while !eq && !k < len do
             if bnd_compare a.m.(ao + !k) b.m.(bo + !k) <> 0 then eq := false;
             incr k
           done;
           !eq)

let pp fmt z =
  if z.empty then Format.pp_print_string fmt "empty"
  else begin
    Format.fprintf fmt "@[<v>";
    for i = 0 to z.n - 1 do
      for j = 0 to z.n - 1 do
        Format.fprintf fmt "%a " Dbm_bound.pp (get z i j)
      done;
      Format.fprintf fmt "@,"
    done;
    Format.fprintf fmt "@]"
  end

(* ------------------------------------------------------------------ *)
(* Arena: bump allocation for stored-zone payloads.  Chunks start at
   512 entries so they land on the major heap directly — freezing a
   zone into the arena costs no minor-heap words beyond its record.
   Growth swaps in a doubled chunk and abandons the old one to the
   zones already pointing into it; [reset] rewinds only the current
   chunk, which is exactly right for the per-domain speculative arenas
   (everything since the last reset is discarded or was copied out by
   the commit loop).                                                   *)

let arena_chunk_min = 512

module Arena = struct
  type arena = { mutable buf : bnd array; mutable pos : int }

  let create () = { buf = [||]; pos = 0 }
  let reset a = a.pos <- 0

  let alloc a size =
    if a.pos + size > Array.length a.buf then begin
      a.buf <-
        Array.make (max (2 * Array.length a.buf) (max size arena_chunk_min)) Inf;
      a.pos <- 0
    end;
    let off = a.pos in
    a.pos <- a.pos + size;
    (a.buf, off)
end

let copy_into a z =
  if z.empty then z
  else begin
    let len = z.n * z.n in
    let buf, off = Arena.alloc a len in
    Array.blit z.m z.off buf off len;
    { n = z.n; m = buf; off; empty = false; hmemo = z.hmemo }
  end

(* ------------------------------------------------------------------ *)
(* Minimal-constraint form; the reduction itself lives in {!Dbm_min}.  *)

module Min = struct
  type min = MEmpty of int | M of Dbm_min.t

  let of_zone z =
    if z.empty then MEmpty z.n
    else begin
      Metrics.incr c_minimize;
      M (Dbm_min.reduce z.n (fun i j -> z.m.(z.off + (i * z.n) + j)))
    end

  let to_zone = function
    | MEmpty n -> { n; m = Array.make (n * n) Inf; off = 0; empty = true; hmemo = 0 }
    | M r -> mk r.Dbm_min.mn (Dbm_min.to_matrix r) false

  let subsumes mn z =
    Metrics.incr c_min_subsumes;
    match mn with
    | MEmpty _ -> z.empty
    | M r ->
        if z.n <> r.Dbm_min.mn then invalid_arg "Dbm.Min.subsumes";
        z.empty || Dbm_min.subsumes r (fun i j -> z.m.(z.off + (i * z.n) + j))

  let equal a b =
    match (a, b) with
    | MEmpty n, MEmpty n' -> n = n'
    | M r, M r' -> Dbm_min.equal r r'
    | _ -> false

  let count = function MEmpty _ -> 0 | M r -> Dbm_min.count r
end

(* ------------------------------------------------------------------ *)
(* Scratch: one reusable matrix per exploration; every op mutates it
   in place and keeps it canonical, so [freeze] is a plain copy.
   [ssrc] remembers the zone last loaded: when a whole edge pipeline
   turns out to be a no-op, [freeze] hands back the already-interned
   original instead of copying.                                        *)

module Scratch = struct
  type scratch = {
    sn : int;
    sm : bnd array;
    mutable sempty : bool;
    mutable ssrc : t option;
    (* [lu_negs] of the last ~upper seen, cached under its physical
       identity: consecutive pipelines into one location layout share
       the array, so the row is only refilled when the layout changes. *)
    mutable slu_upper : Rational.t option array;
    slu_negs : bnd array;
  }

  let create n =
    if n < 1 then invalid_arg "Dbm.Scratch.create";
    {
      sn = n;
      sm = Array.make (n * n) Inf;
      sempty = true;
      ssrc = None;
      slu_upper = [||];
      slu_negs = Array.make n Inf;
    }

  let load s z =
    if s.sn <> z.n then invalid_arg "Dbm.Scratch.load";
    Array.blit z.m z.off s.sm 0 (s.sn * s.sn);
    s.sempty <- z.empty;
    s.ssrc <- Some z

  let is_empty s = s.sempty

  let constrain s i j b =
    Metrics.incr c_constrain;
    if i < 0 || i >= s.sn || j < 0 || j >= s.sn then
      invalid_arg "Dbm.Scratch.constrain";
    if (not s.sempty) && bnd_compare b s.sm.((i * s.sn) + j) < 0 then
      if unsat_with s.sn s.sm 0 i j b then s.sempty <- true
      else tighten_arr s.sn s.sm i j b

  let up s =
    Metrics.incr c_up;
    if not s.sempty then up_arr s.sn s.sm

  let reset s x =
    Metrics.incr c_reset;
    if x < 1 || x >= s.sn then invalid_arg "Dbm.Scratch.reset";
    if not s.sempty then reset_arr s.sn s.sm x

  let free s x =
    Metrics.incr c_free;
    if x < 1 || x >= s.sn then invalid_arg "Dbm.Scratch.free";
    if not s.sempty then free_arr s.sn s.sm x

  let remap ~src map ~dst =
    Metrics.incr c_remap;
    let n = src.sn and m = dst.sn in
    if src == dst || Array.length map <> m || map.(0) <> 0 then
      invalid_arg "Dbm.Scratch.remap";
    for j = 1 to m - 1 do
      if map.(j) < 0 || map.(j) >= n then invalid_arg "Dbm.Scratch.remap"
    done;
    dst.sempty <- src.sempty;
    dst.ssrc <- src.ssrc;
    if not src.sempty then
      for i = 0 to m - 1 do
        let ri = map.(i) * n and di = i * m in
        for j = 0 to m - 1 do
          dst.sm.(di + j) <- src.sm.(ri + map.(j))
        done
      done

  let extrapolate mc s =
    Metrics.incr c_extrapolate;
    if (not s.sempty) && extrapolate_arr s.sn s.sm mc (Rational.neg mc) then
      ignore (canonicalize_arr s.sn s.sm)

  let extrapolate_lu ~lower ~upper s =
    Metrics.incr c_extrapolate;
    if not s.sempty then begin
      if s.slu_upper != upper then begin
        lu_negs_into s.sn upper s.slu_negs;
        s.slu_upper <- upper
      end;
      if extrapolate_lu_wide s.sn s.sm lower s.slu_negs then
        ignore (canonicalize_arr s.sn s.sm)
    end

  let sat s i j b =
    Metrics.incr c_sat;
    if i < 0 || i >= s.sn || j < 0 || j >= s.sn then
      invalid_arg "Dbm.Scratch.sat";
    (not s.sempty) && not (unsat_with s.sn s.sm 0 i j b)

  (* Is the scratch still (structurally) the zone it was loaded from?
     Emptiness matching is enough for empty zones — nothing ever reads
     an empty zone's entries. *)
  let unchanged s =
    match s.ssrc with
    | None -> None
    | Some z ->
        if z.n <> s.sn || z.empty <> s.sempty then None
        else if s.sempty then Some z
        else begin
          let len = s.sn * s.sn in
          let zo = z.off in
          let k = ref 0 in
          let eq = ref true in
          while !eq && !k < len do
            if bnd_compare s.sm.(!k) z.m.(zo + !k) <> 0 then eq := false;
            incr k
          done;
          if !eq then Some z else None
        end

  let freeze s =
    match unchanged s with
    | Some z -> z
    | None -> mk s.sn (Array.copy s.sm) s.sempty

  let hash s = if s.sempty then 0 else hash_arr s.sn s.sm 0

  let equal_zone s z =
    s.sn = z.n && s.sempty = z.empty
    && (s.sempty
       ||
       let len = s.sn * s.sn in
       let zo = z.off in
       let k = ref 0 in
       let eq = ref true in
       while !eq && !k < len do
         if bnd_compare s.sm.(!k) z.m.(zo + !k) <> 0 then eq := false;
         incr k
       done;
       !eq)

  let freeze_into ?hash a s =
    match unchanged s with
    | Some z -> z
    | None ->
        if s.sempty then mk s.sn (Array.copy s.sm) true
        else begin
          let len = s.sn * s.sn in
          let buf, off = Arena.alloc a len in
          Array.blit s.sm 0 buf off len;
          let hmemo = match hash with Some h -> h | None -> min_int in
          { n = s.sn; m = buf; off; empty = false; hmemo }
        end
end
