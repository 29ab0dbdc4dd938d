(* Golden dump of the daemon's request catalog, run in-process: every
   system's verify items (fingerprint and verdict document), margin and
   simulate documents, plus the structured errors a malformed request
   gets.  The output is diffed against golden/serve.expected, so a
   change in what the daemon answers — or in a verify fingerprint,
   which checkpoints and cache entries are keyed on — shows up as a
   diff.  Margin and simulate fingerprints are not printed: they are
   cache keys private to the daemon, not checkpoint identities. *)

module Json = Tm_obs.Json
module Catalog = Tm_serve.Catalog
module Reach = Tm_zones.Reach

let req s =
  match Json.of_string s with
  | Ok j -> j
  | Error m -> failwith ("golden_serve: bad request literal: " ^ m)

(* Print one request's outcome; [Error] means the catalog refused it. *)
let show ?(fingerprint = false) s =
  Printf.printf "> %s\n" s;
  match Catalog.of_request (req s) with
  | Error m ->
      Printf.printf "error: %s\n" m;
      false
  | Ok job ->
      Printf.printf "label: %s\n" job.Catalog.label;
      if fingerprint then
        Printf.printf "fingerprint: %s\n" job.Catalog.fingerprint;
      (match
         job.Catalog.exec ~limit:None ~deadline_s:None ~domains:1
           ~checkpoint:None ~resume:None
       with
      | Ok doc -> Printf.printf "doc: %s\n" (Json.to_string doc)
      | Error e -> Printf.printf "unknown: %s\n" e.Reach.reason);
      true

let system name params =
  (* walk the verify items until the catalog reports one out of range,
     so the per-system item count is part of the transcript *)
  let rec items i =
    if
      show ~fingerprint:true
        (Printf.sprintf
           "{\"op\":\"verify\",\"system\":\"%s\",\"params\":%s,\"item\":%d}"
           name params i)
    then items (i + 1)
  in
  items 0;
  ignore
    (show
       (Printf.sprintf "{\"op\":\"margin\",\"system\":\"%s\",\"params\":%s}"
          name params));
  ignore
    (show
       (Printf.sprintf
          "{\"op\":\"simulate\",\"system\":\"%s\",\"params\":%s,\"steps\":20}"
          name params))

let () =
  (* the widening mode changes zone counts and fingerprints; pin the
     default whatever the caller's environment says *)
  Unix.putenv "TM_NO_LU" "";
  system "rm" "{\"k\":2}";
  system "im" "{\"k\":4}";
  system "relay" "{\"n\":3}";
  system "fischer" "{\"n\":3,\"b\":3}";
  system "rg" "{\"d2\":5}";
  system "ring" "{\"n\":3,\"d2\":3}";
  system "fd" "{\"m\":3}";
  system "two" "{\"k\":5}";
  List.iter
    (fun s -> ignore (show ~fingerprint:true s))
    [
      (* per-op defaults and clamps *)
      "{\"op\":\"verify\",\"system\":\"fd\",\"item\":0}";
      "{\"op\":\"verify\",\"system\":\"fischer\",\"params\":{\"n\":1}}";
      (* every engine name *)
      "{\"system\":\"rm\",\"engine\":\"auto\"}";
      "{\"system\":\"rm\",\"engine\":\"int\"}";
      "{\"system\":\"rm\",\"engine\":\"fast\"}";
      "{\"system\":\"rm\",\"engine\":\"ref\"}";
      "{\"system\":\"rm\",\"engine\":\"paranoid\"}";
    ];
  List.iter
    (fun s -> ignore (show s))
    [
      "{\"op\":\"margin\",\"system\":\"fd\"}";
      "{\"op\":\"simulate\",\"system\":\"rm\",\"strategy\":\"eager\",\
       \"steps\":10}";
      "{\"op\":\"simulate\",\"system\":\"relay\",\"strategy\":\"lazy\",\
       \"steps\":10,\"seed\":7}";
      (* structured errors *)
      "{\"op\":\"verify\",\"system\":\"nope\"}";
      "{\"op\":\"verify\",\"system\":\"rm\",\"engine\":\"nope\"}";
      "{\"op\":\"verify\",\"system\":\"rm\",\"params\":{\"zz\":1}}";
      "{\"op\":\"verify\",\"system\":\"rm\",\"params\":{\"k\":\"x\"}}";
      "{\"op\":\"verify\",\"system\":\"rm\",\"params\":[1]}";
      "{\"op\":\"verify\",\"system\":\"rm\",\"params\":{\"c1\":5,\"c2\":3}}";
      "{\"op\":\"simulate\",\"system\":\"rm\",\"strategy\":\"nope\"}";
      "{\"op\":\"nope\",\"system\":\"rm\"}";
      "[1,2]";
    ]
