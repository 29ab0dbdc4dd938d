(* The traced kernel shim must not change what it measures: engines built
   over it give the same verdicts, stats, zone counters and fingerprints
   as the production engines, and [Shim.Auto] picks the same kernel as
   [Reach.Auto] on integral and non-integral inputs alike. *)

module Reach = Tm_zones.Reach
module Condition = Tm_timed.Condition
module F = Tm_systems.Fischer
module SR = Tm_systems.Signal_relay

module Traced_int = Reach.Make (Shim.Traced (Tm_zones.Dbm_int))
module Traced_rat = Reach.Make (Shim.Traced (Tm_zones.Dbm))

let counters =
  [ "zones.stored"; "zones.subsumed"; "zones.edges"; "zones.interned";
    "zones.pruned_waiting" ]

let counted f =
  let v () = List.map (fun c -> Tm_obs.Metrics.(value (counter c))) counters in
  let before = v () in
  let r = f () in
  (r, List.map2 ( - ) (v ()) before)

let same what (module A : Reach.S) (module B : Reach.S) ~inv ~cond =
  let run (module E : Reach.S) =
    let i, ci = counted (fun () -> inv (module E : Reach.S)) in
    let c, cc = counted (fun () -> cond (module E : Reach.S)) in
    (i, c, ci, cc)
  in
  let ia, ca, cia, cca = run (module A) in
  let ib, cb, cib, ccb = run (module B) in
  let check name ok = if not ok then failwith (what ^ ": " ^ name ^ " differs") in
  check "invariant verdict and stats" (ia = ib);
  check "condition verdict and stats" (ca = cb);
  check "invariant zones.* counters" (cia = cib);
  check "condition zones.* counters" (cca = ccb);
  Printf.printf "ok  %s\n%!" what

let fischer_case bm_of =
  let p = F.params_of_ints ~n:3 ~r:2 ~t:1 ~a:1 ~b:2 ~b2:3 ~e:2 in
  let sys = F.system p and bm = bm_of (F.boundmap p) in
  let inv (module E : Reach.S) =
    ( E.fingerprint_invariant sys bm,
      match E.check_state_invariant sys bm F.mutual_exclusion with
      | Ok st -> Ok st
      | Error _ -> Error () )
  in
  let cond (module E : Reach.S) =
    (E.fingerprint_condition sys bm (F.u_enter p), E.check_condition sys bm (F.u_enter p))
  in
  (inv, cond)

let relay_case () =
  let n = 8 in
  let p = SR.params_of_ints ~n ~d1:1 ~d2:2 in
  let sys = SR.line p and bm = SR.boundmap p in
  let u =
    Condition.make ~name:"U(0,n)"
      ~t_step:(fun _ a _ -> a = SR.Signal 0)
      ~bounds:(SR.delay_interval p)
      ~in_pi:(fun a -> a = SR.Signal n)
      ()
  in
  let inv (module E : Reach.S) =
    (E.fingerprint_reachable sys bm, Ok (fst (E.reachable sys bm)))
  in
  let cond (module E : Reach.S) =
    (E.fingerprint_condition sys bm u, E.check_condition sys bm u)
  in
  (inv, cond)

let () =
  let integral = fischer_case Fun.id in
  let widened =
    fischer_case
      (Tm_faults.Perturb.apply_exn (Tm_faults.Perturb.widen (Tm_base.Rational.make 1 2)))
  in
  let relay = relay_case () in
  let cases =
    [ ("fischer n=3", integral); ("relay n=8", relay) ]
  in
  List.iter
    (fun (name, (inv, cond)) ->
      same (name ^ ": traced int = Reach.Int") (module Traced_int) (module Reach.Int) ~inv ~cond;
      same (name ^ ": traced rational = Reach.Default") (module Traced_rat)
        (module Reach.Default) ~inv ~cond;
      same (name ^ ": Shim.Auto = Reach.Auto") (module Shim.Auto) (module Reach.Auto) ~inv
        ~cond)
    cases;
  (* a non-integral boundmap: both Autos must fall back to the rational
     kernel (the fingerprints name the kernel) *)
  let inv, cond = widened in
  same "fischer n=3 widened by 1/2: Shim.Auto = Reach.Auto" (module Shim.Auto)
    (module Reach.Auto) ~inv ~cond;
  if Shim.stats.load.calls = 0 then failwith "the shim counted no kernel calls"
