(* perfbench: the measuring process of the repository benchmark.

   [run.py] builds this executable and starts one fresh process per
   measurement, so peak RSS, GC deltas and lazy initialization are never
   inherited from an earlier pass or workload:

     perfbench.exe pass fischer5-int|margin-fischer3 [--setup-only]
     perfbench.exe trace fischer5-int|margin-fischer3 --spans FILE
     perfbench.exe pin

   Answers are checked against perfbench/pins.json, read relative to the
   working directory; [pin] rewrites that file.  Every command prints its result as one JSON line
   on stdout; [pass] first prints READY once its model is built, which is
   where set-up ends. *)

module Json = Tm_obs.Json
module Reach = Tm_zones.Reach
module Margin = Tm_faults.Margin
open Work

let emit fields =
  print_endline (Json.to_string (Json.Obj fields));
  flush stdout

let num f = Json.Float f
let int n = Json.Int n

(* ------------------------------------------------------------------ *)
(* untraced passes *)

let fischer_answers_failed checks =
  let want = pin "fischer5-int" in
  List.length
    (List.filter
       (fun c -> Json.member c.label want <> Some (Json.String c.answer))
       checks)

let margin_answers_failed reports =
  match (pin "margin-fischer3", reports_json reports) with
  | Json.List want, Json.List got when List.length want = List.length got ->
      List.length (List.filter (fun (w, g) -> not (Json.equal w g)) (List.combine want got))
  | _ -> List.length reports

let ready () =
  print_endline "READY";
  flush stdout

let pass workload ~setup_only =
  let edges_zones cs =
    List.fold_left (fun (e, z) c -> (e + c.stats.edges, z + c.stats.zones)) (0, 0) cs
  in
  match workload with
  | "fischer5-int" ->
      let p = fischer 5 in
      ignore (F.system p, F.boundmap p, F.u_enter p);
      ready ();
      if not setup_only then begin
        let checks, dt, cpu = time_cpu (fun () -> verify_pass (module Reach.Auto) p) in
        let edges, zones = edges_zones checks in
        emit
          [ ("verdict_s", num dt); ("cpu_s", num cpu);
            ("peak_rss_mb", num (peak_rss_mb ()));
            ("attempted", int (List.length checks));
            ("failed", int (fischer_answers_failed checks));
            ("edges", int edges); ("zones", int zones) ]
      end
  | "margin-fischer3" ->
      let p = fischer 3 in
      ignore (F.system p, F.boundmap p, F.u_enter p);
      ready ();
      if not setup_only then begin
        let reports, dt, cpu = time_cpu (fun () -> margin_pass (module Reach.Auto) p) in
        emit
          [ ("verdict_s", num dt); ("cpu_s", num cpu);
            ("peak_rss_mb", num (peak_rss_mb ()));
            ("attempted", int (List.length reports));
            ("failed", int (margin_answers_failed reports));
            ("probes", int (probes_of reports)) ]
      end
  | w -> failwith ("pass: unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* the traced run *)

let us ns = float_of_int ns /. 1e3

let kernel_metrics ~edges ~reach_s =
  let s = Shim.stats in
  let pair name ops =
    let c, ns = Shim.sum ops in
    [ ("kernel." ^ name ^ ".calls", int c); ("kernel." ^ name ^ ".us", num (us ns)) ]
  in
  pair "succ" (Shim.succ_ops s)
  @ [ ("kernel.free.calls", int s.free.calls);
      ("kernel.free_per_edge",
       num (float_of_int s.free.calls /. float_of_int (max 1 edges)));
      ("kernel.dim_max", int s.dim_max) ]
  @ pair "extrapolate" [ s.extrapolate ]
  @ pair "intern" (Shim.intern_ops s)
  @ pair "minimize" [ s.minimize ]
  @ pair "subsume" [ s.subsume ]
  @ pair "sat" [ s.sat ]
  @ [ ("kernel.share",
       num (if reach_s > 0. then float_of_int (Shim.total_ns ()) /. 1e9 /. reach_s
            else 0.)) ]

(* [untraced_s]: the same work without the shim, for edges/s *)
let reach_metrics (zc : zone_counts) ~untraced_s =
  let reach_s = reach_acc.secs in
  [ ("reach.calls", int reach_acc.calls); ("reach.s", num reach_s);
    ("reach.self_s", num (reach_s -. (float_of_int (Shim.total_ns ()) /. 1e9)));
    ("reach.edges", int zc.edges); ("reach.zones_stored", int zc.stored);
    ("reach.locations", int reach_acc.locations);
    ("reach.edges_per_s",
     num (if untraced_s > 0. then float_of_int zc.edges /. untraced_s else 0.));
    ("reach.store_ratio",
     num (float_of_int zc.stored
          /. float_of_int (max 1 (zc.stored + zc.subsumed + zc.interned)))) ]

let gc_metrics g ~edges =
  let words_mb w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576. in
  [ ("gc.minor_words", num g.minor_words); ("gc.major_words", num g.major_words);
    ("gc.minor_words_per_edge", num (g.minor_words /. float_of_int (max 1 edges)));
    ("gc.major_collections", int g.major_collections);
    ("gc.top_heap_mb", num (words_mb g.top_heap_words)) ]

let margin_metrics ~probe_s ~rational ~report_s =
  [ ("margin.probes", int (List.length probe_s));
    ("margin.rational_probes", int rational);
    ("margin.probe_ms_p50", num (if probe_s = [] then 0. else 1e3 *. median probe_s));
    ("margin.probe_ms_max", num (1e3 *. List.fold_left Float.max 0. probe_s));
    ("margin.self_s", num (report_s -. List.fold_left ( +. ) 0. probe_s)) ]

(* A layer the workload does not exercise reports zero work. *)
let zeros names = List.map (fun n -> (n, int 0)) names

let margin_names = List.map fst (margin_metrics ~probe_s:[] ~rational:0 ~report_s:0.)

let overhead ~traced ~untraced = ("trace.overhead_pct", num (100. *. (traced -. untraced) /. untraced))

let trace_fischer () =
  let p = fischer 5 in
  let module T = Timed (Shim.Auto) in
  (* untraced first: the GC deltas of a fresh process *)
  let ((checks_u, zc_u), g), t_u, cpu_u =
    time_cpu (fun () ->
        with_gc (fun () -> with_zone_counts (fun () -> verify_pass (module Reach.Auto) p)))
  in
  Shim.reset_stats ();
  let (checks_t, zc_t), t_t =
    time (fun () ->
        with_span "fischer5-int.pass" (fun () ->
            with_zone_counts (fun () -> verify_pass (module T) p)))
  in
  let checks_2, t_2 =
    time (fun () -> verify_pass ~domains:2 (module Reach.Auto) p)
  in
  let same a b = List.for_all2 (fun x y -> x.answer = y.answer && x.stats = y.stats) a b in
  let agree =
    same checks_u checks_t && same checks_u checks_2 && zc_u.edges = zc_t.edges
    && zc_u.stored = zc_t.stored
  in
  let metrics =
    kernel_metrics ~edges:zc_t.edges ~reach_s:reach_acc.secs
    @ reach_metrics zc_t ~untraced_s:t_u
    @ gc_metrics g ~edges:zc_u.edges
    @ zeros margin_names
    @ [ ("verdict_cpu_s", num cpu_u); ("par.speedup_d2", num (t_u /. t_2));
        overhead ~traced:t_t ~untraced:t_u ]
  in
  let failed =
    fischer_answers_failed checks_u + fischer_answers_failed checks_t
    + fischer_answers_failed checks_2 + if agree then 0 else 1
  in
  (metrics, 7, failed)

let trace_margin () =
  let p = fischer 3 in
  let module T = Timed (Shim.Auto) in
  let ((reports_u, zc_u), g), t_u, cpu_u =
    time_cpu (fun () ->
        with_gc (fun () ->
            with_zone_counts (fun () -> margin_pass (module Reach.Auto) p)))
  in
  Shim.reset_stats ();
  Shim.rational_calls := 0;
  let probe_s = ref [] in
  let wrap check bm =
    with_span "margin.probe" @@ fun () ->
    let r, dt = time (fun () -> check bm) in
    probe_s := dt :: !probe_s;
    r
  in
  let (reports_t, zc_t), t_t =
    time (fun () ->
        with_span "margin-fischer3.pass" (fun () ->
            with_zone_counts (fun () -> margin_pass ~wrap (module T) p)))
  in
  let reports_2, t_2 =
    time (fun () -> margin_pass ~domains:2 (module Reach.Auto) p)
  in
  let json rs = Json.List (List.map Margin.to_json rs) in
  let agree =
    Json.equal (json reports_u) (json reports_t)
    && Json.equal (json reports_u) (json reports_2)
    && zc_u.edges = zc_t.edges && zc_u.stored = zc_t.stored
  in
  let metrics =
    kernel_metrics ~edges:zc_t.edges ~reach_s:reach_acc.secs
    @ reach_metrics zc_t ~untraced_s:t_u
    @ gc_metrics g ~edges:zc_u.edges
    @ margin_metrics ~probe_s:!probe_s ~rational:!Shim.rational_calls ~report_s:t_t
    @ [ ("verdict_cpu_s", num cpu_u); ("par.speedup_d2", num (t_u /. t_2));
        overhead ~traced:t_t ~untraced:t_u ]
  in
  let failed =
    margin_answers_failed reports_u + margin_answers_failed reports_t
    + margin_answers_failed reports_2 + if agree then 0 else 1
  in
  (metrics, 7, failed)

let trace workload ~spans_out =
  let metrics, attempted, failed =
    match workload with
    | "fischer5-int" -> trace_fischer ()
    | "margin-fischer3" -> trace_margin ()
    | w -> failwith ("trace: unknown workload " ^ w)
  in
  write_spans spans_out;
  emit [ ("metrics", Json.Obj metrics); ("attempted", int attempted); ("failed", int failed) ]

(* ------------------------------------------------------------------ *)
(* pinning answers on the reference kernel *)

let pin_answers () =
  let progress m = prerr_endline ("pin: " ^ m) in
  progress "fischer5-int on the reference kernel";
  let checks = verify_pass (module Reach.Ref) (fischer 5) in
  progress "margin-fischer3 on the reference kernel";
  let reports = margin_pass (module Reach.Ref) (fischer 3) in
  (* the mutual-exclusion slack derived by hand: widening everything
     breaks a<b at e = 1/2, widening SET_i or CHECK_i alone at e = 1 *)
  (match reports with
  | mutex :: _ ->
      let is e = function
        | Ok v -> Tm_base.Rational.to_string v.Margin.threshold = e && not v.Margin.attained
        | Error _ -> false
      in
      if not (is "1/2" mutex.Margin.overall
              && List.for_all
                   (fun row ->
                     let c = row.Margin.cls in
                     (String.length c < 4
                      || not (List.mem (String.sub c 0 4) [ "SET_"; "CHEC" ]))
                     || is "1" row.Margin.verdict)
                   mutex.Margin.per_class)
      then failwith "mutual-exclusion margins differ from the hand derivation"
  | [] -> failwith "no margin reports");
  Json.to_file pins_file
    (Json.Obj
       [ ("provenance",
          Json.Obj
            [ ("engine", Json.String "ref (Reach.Ref over Dbm_ref)");
              ("command", Json.String "perfbench.exe pin");
              ("fischer5-int", Json.String "safe iff a<b; a=1, b=2");
              ("margin-fischer3",
               Json.String
                 "mutual exclusion: overall e* = 1/2 open and SET_i/CHECK_i e* = 1 \
                  open (the a<b slack, derived by hand and matched here); U_enter \
                  rows as computed on the reference kernel") ]);
         ("fischer5-int", checks_json checks);
         ("margin-fischer3", reports_json reports) ])

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> v
    | _ :: rest -> opt name rest
    | [] -> failwith ("missing " ^ name)
  in
  match args with
  | "pass" :: w :: rest -> pass w ~setup_only:(List.mem "--setup-only" rest)
  | "trace" :: w :: rest -> trace w ~spans_out:(opt "--spans" rest)
  | [ "pin" ] -> pin_answers ()
  | _ ->
      prerr_endline
        "usage: perfbench.exe (pass WORKLOAD [--setup-only] | trace WORKLOAD --spans FILE \
         | pin)";
      exit 2
