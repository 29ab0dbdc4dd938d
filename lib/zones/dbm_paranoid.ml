(* Paranoid kernel: delegate everything to the fast {!Dbm}, and under a
   sampling period k re-run every k-th scratch pipeline on the
   reference kernel, comparing every observable answer.  The zones this
   kernel produces are Dbm.t values untouched by the checking, so
   exploration behaviour (and zones.stored) is identical to the fast
   engine unless a mismatch aborts the run. *)

module Metrics = Tm_obs.Metrics
module Paranoid = Tm_recover.Paranoid

let c_selfcheck = Metrics.counter "recover.selfcheck_total"
let c_mismatch = Metrics.counter "recover.selfcheck_mismatch"

type t = Dbm.t

let name = "fast+selfcheck"
let dim = Dbm.dim
let zero = Dbm.zero
let top = Dbm.top
let is_empty = Dbm.is_empty
let get = Dbm.get
let constrain = Dbm.constrain
let up = Dbm.up
let reset = Dbm.reset
let free = Dbm.free
let intersect = Dbm.intersect
let includes = Dbm.includes
let extrapolate = Dbm.extrapolate
let extrapolate_lu = Dbm.extrapolate_lu
let sat = Dbm.sat
let loose = Dbm.loose
let equal = Dbm.equal
let hash = Dbm.hash
let pp = Dbm.pp

(* Zones are Dbm.t values, so arena and minimal-constraint storage
   delegate wholesale — the self-check happens at freeze time, before
   a zone enters either. *)
module Arena = Dbm.Arena

let copy_into = Dbm.copy_into

module Min = Dbm.Min

let mismatch fmt =
  Format.kasprintf
    (fun m ->
      Metrics.incr c_mismatch;
      raise (Paranoid.Mismatch m))
    fmt

(* Rebuild a fast zone on the reference kernel from its public bounds.
   The source is canonical, so adding its constraints to [top] one by
   one reproduces the same matrix. *)
let ref_of_fast z =
  let n = Dbm.dim z in
  let r = ref (Dbm_ref.top n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        match Dbm.get z i j with
        | Dbm_bound.Inf -> ()
        | b -> r := Dbm_ref.constrain !r i j b
    done
  done;
  !r

(* The int-kernel cross-check only makes sense while everything in the
   pipeline is exactly representable as a packed integer; integrality
   is probed at load and re-probed per operand, and the mirror simply
   drops out of the pipeline (no verdict either way) on the first
   non-integral value it sees — e.g. a margin-perturbed invariant. *)
let int_q q = q.Tm_base.Rational.den = 1

let int_bound = function
  | Dbm_bound.Inf -> true
  | Dbm_bound.Le q | Dbm_bound.Lt q -> int_q q

let int_zone z =
  let n = Dbm.dim z in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if not (int_bound (Dbm.get z i j)) then ok := false
    done
  done;
  !ok

let int_of_fast z =
  let n = Dbm.dim z in
  let r = ref (Dbm_int.top n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        match Dbm.get z i j with
        | Dbm_bound.Inf -> ()
        | b -> r := Dbm_int.constrain !r i j b
    done
  done;
  !r

(* Test hook: derange a frozen fast zone into a legitimately different
   zone using only public kernel operations, so the entry-by-entry
   comparison below must notice.  Tightening clock 1 against the
   reference clock changes any zone that admits more than a point of
   clock 1 (and empties point zones, which the emptiness comparison
   catches); an empty zone is replaced by [top]. *)
let corrupt_fast z =
  let n = Dbm.dim z in
  if Dbm.is_empty z then Dbm.top n
  else if n < 2 then Dbm.up z
  else
    match Dbm.get z 1 0 with
    | Dbm_bound.Inf -> Dbm.constrain z 1 0 (Dbm_bound.Le Tm_base.Rational.zero)
    | Dbm_bound.Le c -> Dbm.constrain z 1 0 (Dbm_bound.Lt c)
    | Dbm_bound.Lt c ->
        Dbm.constrain z 1 0
          (Dbm_bound.Lt (Tm_base.Rational.sub c Tm_base.Rational.one))

module Scratch = struct
  type scratch = {
    fast : Dbm.Scratch.scratch;
    refk : Dbm_ref.Scratch.scratch;
    intk : Dbm_int.Scratch.scratch;
    mutable loads : int;  (** pipelines seen by this arena *)
    mutable checking : bool;  (** current pipeline is being mirrored *)
    mutable int_checking : bool;
        (** int kernel also mirrors this (so-far integral) pipeline *)
  }

  let create n =
    {
      fast = Dbm.Scratch.create n;
      refk = Dbm_ref.Scratch.create n;
      intk = Dbm_int.Scratch.create n;
      loads = 0;
      checking = false;
      int_checking = false;
    }

  let load s z =
    Dbm.Scratch.load s.fast z;
    let k = Paranoid.every () in
    s.loads <- s.loads + 1;
    s.checking <- k > 0 && s.loads mod k = 0;
    s.int_checking <- false;
    if s.checking then begin
      Metrics.incr c_selfcheck;
      Dbm_ref.Scratch.load s.refk (ref_of_fast z);
      if int_zone z then begin
        s.int_checking <- true;
        Dbm_int.Scratch.load s.intk (int_of_fast z)
      end
    end

  let constrain s i j b =
    Dbm.Scratch.constrain s.fast i j b;
    if s.checking then begin
      Dbm_ref.Scratch.constrain s.refk i j b;
      if s.int_checking then
        if int_bound b then Dbm_int.Scratch.constrain s.intk i j b
        else s.int_checking <- false
    end

  let up s =
    Dbm.Scratch.up s.fast;
    if s.checking then begin
      Dbm_ref.Scratch.up s.refk;
      if s.int_checking then Dbm_int.Scratch.up s.intk
    end

  let reset s x =
    Dbm.Scratch.reset s.fast x;
    if s.checking then begin
      Dbm_ref.Scratch.reset s.refk x;
      if s.int_checking then Dbm_int.Scratch.reset s.intk x
    end

  let free s x =
    Dbm.Scratch.free s.fast x;
    if s.checking then begin
      Dbm_ref.Scratch.free s.refk x;
      if s.int_checking then Dbm_int.Scratch.free s.intk x
    end

  (* The target inherits the source's sampling decision, so a checked
     pipeline stays mirrored across the change of dimension. *)
  let remap ~src map ~dst =
    Dbm.Scratch.remap ~src:src.fast map ~dst:dst.fast;
    dst.checking <- src.checking;
    dst.int_checking <- src.int_checking;
    if dst.checking then begin
      Dbm_ref.Scratch.remap ~src:src.refk map ~dst:dst.refk;
      if dst.int_checking then
        Dbm_int.Scratch.remap ~src:src.intk map ~dst:dst.intk
    end

  let extrapolate mc s =
    Dbm.Scratch.extrapolate mc s.fast;
    if s.checking then begin
      Dbm_ref.Scratch.extrapolate mc s.refk;
      if s.int_checking then
        if int_q mc then Dbm_int.Scratch.extrapolate mc s.intk
        else s.int_checking <- false
    end

  let extrapolate_lu ~lower ~upper s =
    Dbm.Scratch.extrapolate_lu ~lower ~upper s.fast;
    if s.checking then begin
      Dbm_ref.Scratch.extrapolate_lu ~lower ~upper s.refk;
      if s.int_checking then begin
        (* The int kernel rounds non-integer L/U bounds up, which is
           sound but no longer the same abstraction — only mirror an
           exactly representable extrapolation. *)
        let int_opt = function None -> true | Some q -> int_q q in
        if Array.for_all int_opt lower && Array.for_all int_opt upper then
          Dbm_int.Scratch.extrapolate_lu ~lower ~upper s.intk
        else s.int_checking <- false
      end
    end

  let is_empty s =
    let fa = Dbm.Scratch.is_empty s.fast in
    if s.checking then begin
      let ra = Dbm_ref.Scratch.is_empty s.refk in
      if fa <> ra then
        mismatch
          "selfcheck: emptiness disagrees mid-pipeline (fast=%b, ref=%b)" fa
          ra;
      if s.int_checking then begin
        let ia = Dbm_int.Scratch.is_empty s.intk in
        if ia <> ra then
          mismatch
            "selfcheck: emptiness disagrees mid-pipeline (int=%b, ref=%b)" ia
            ra
      end
    end;
    fa

  let sat s i j b =
    let fa = Dbm.Scratch.sat s.fast i j b in
    if s.checking then begin
      let ra = Dbm_ref.Scratch.sat s.refk i j b in
      if fa <> ra then
        mismatch "selfcheck: sat(%d,%d) disagrees (fast=%b, ref=%b)" i j fa ra;
      if s.int_checking && int_bound b then begin
        let ia = Dbm_int.Scratch.sat s.intk i j b in
        if ia <> ra then
          mismatch "selfcheck: sat(%d,%d) disagrees (int=%b, ref=%b)" i j ia
            ra
      end
    end;
    fa

  (* Cross-kernel comparison of a frozen fast zone against the mirror
     pipelines; shared by [freeze] and [freeze_into]. *)
  let check_frozen s zf =
    if not s.checking then zf
    else begin
      let zf = if Paranoid.corrupt () then corrupt_fast zf else zf in
      let zr = Dbm_ref.Scratch.freeze s.refk in
      let fe = Dbm.is_empty zf and re = Dbm_ref.is_empty zr in
      if fe <> re then
        mismatch "selfcheck: frozen emptiness disagrees (fast=%b, ref=%b)" fe
          re;
      if not fe then begin
        let n = Dbm.dim zf in
        if n <> Dbm_ref.dim zr then
          mismatch "selfcheck: frozen dimension disagrees (fast=%d, ref=%d)" n
            (Dbm_ref.dim zr);
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let bf = Dbm.get zf i j and br = Dbm_ref.get zr i j in
            if Dbm_bound.compare bf br <> 0 then
              mismatch
                "selfcheck: frozen zone disagrees at (%d,%d): fast %a, ref %a"
                i j Dbm_bound.pp bf Dbm_bound.pp br
          done
        done
      end;
      (* Int-vs-ref leg of the cross-check: on an all-integral pipeline
         the packed-int kernel must land on the very same zone. *)
      if s.int_checking then begin
        let zi = Dbm_int.Scratch.freeze s.intk in
        let ie = Dbm_int.is_empty zi in
        if ie <> re then
          mismatch "selfcheck: frozen emptiness disagrees (int=%b, ref=%b)"
            ie re;
        if not ie then begin
          let n = Dbm_ref.dim zr in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              let bi = Dbm_int.get zi i j and br = Dbm_ref.get zr i j in
              if Dbm_bound.compare bi br <> 0 then
                mismatch
                  "selfcheck: frozen zone disagrees at (%d,%d): int %a, ref \
                   %a"
                  i j Dbm_bound.pp bi Dbm_bound.pp br
            done
          done
        end
      end;
      zf
    end

  let freeze s = check_frozen s (Dbm.Scratch.freeze s.fast)

  let freeze_into ?hash a s =
    check_frozen s (Dbm.Scratch.freeze_into ?hash a s.fast)

  let hash s = Dbm.Scratch.hash s.fast
  let equal_zone s z = Dbm.Scratch.equal_zone s.fast z
end
