open Scs_util

type native = {
  backend : string;
  domains : int;
  ops_per_sec : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  abort_rate : float;
}

type record = {
  workload : string;
  sim_backend : string option;
  n : int;
  runs : int;
  p50_steps : float;
  p99_steps : float;
  max_interval_contention : int;
  schedules_per_sec : float;
  native : native option;
}

type t = { run : string; seed : int; records : record list }

let schema_version = "scs.bench.trajectory/1"

let native_to_json (nv : native) =
  Json.Obj
    [
      ("backend", Json.String nv.backend);
      ("domains", Json.Int nv.domains);
      ("ops_per_sec", Json.Float nv.ops_per_sec);
      ("p50_us", Json.Float nv.p50_us);
      ("p99_us", Json.Float nv.p99_us);
      ("p999_us", Json.Float nv.p999_us);
      ("abort_rate", Json.Float nv.abort_rate);
    ]

let record_to_json r =
  Json.Obj
    ([
       ("workload", Json.String r.workload);
     ]
    @ (match r.sim_backend with
      | None -> []
      | Some b -> [ ("backend", Json.String b) ])
    @ [
       ("n", Json.Int r.n);
       ("runs", Json.Int r.runs);
       ("p50_steps", Json.Float r.p50_steps);
       ("p99_steps", Json.Float r.p99_steps);
       ("max_interval_contention", Json.Int r.max_interval_contention);
       ("schedules_per_sec", Json.Float r.schedules_per_sec);
     ]
    @ match r.native with None -> [] | Some nv -> [ ("native", native_to_json nv) ])

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ("run", Json.String t.run);
      ("seed", Json.Int t.seed);
      ("records", Json.List (List.map record_to_json t.records));
    ]

let ( let* ) = Result.bind

(* [f] over [l], stopping at the first error *)
let all_ok f l =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* v = f x in
      Ok (v :: acc))
    (Ok []) l
  |> Result.map List.rev

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped field %S" name)

let native_of_json j =
  let* backend = field "backend" Json.to_stringv j in
  let* domains = field "domains" Json.to_int j in
  let* ops_per_sec = field "ops_per_sec" Json.to_float j in
  let* p50_us = field "p50_us" Json.to_float j in
  let* p99_us = field "p99_us" Json.to_float j in
  let* p999_us = field "p999_us" Json.to_float j in
  let* abort_rate = field "abort_rate" Json.to_float j in
  Ok { backend; domains; ops_per_sec; p50_us; p99_us; p999_us; abort_rate }

let record_of_json j =
  let* workload = field "workload" Json.to_stringv j in
  let sim_backend = Option.bind (Json.member "backend" j) Json.to_stringv in
  let* n = field "n" Json.to_int j in
  let* runs = field "runs" Json.to_int j in
  let* p50_steps = field "p50_steps" Json.to_float j in
  let* p99_steps = field "p99_steps" Json.to_float j in
  let* max_interval_contention = field "max_interval_contention" Json.to_int j in
  let* schedules_per_sec = field "schedules_per_sec" Json.to_float j in
  let* native =
    match Json.member "native" j with
    | None -> Ok None
    | Some nj ->
        let* nv = native_of_json nj in
        Ok (Some nv)
  in
  Ok
    { workload; sim_backend; n; runs; p50_steps; p99_steps;
      max_interval_contention; schedules_per_sec; native }

let of_json j =
  let* schema = field "schema" Json.to_stringv j in
  if schema <> schema_version then
    Error (Printf.sprintf "schema mismatch: expected %S, got %S" schema_version schema)
  else
    let* run = field "run" Json.to_stringv j in
    let* seed = field "seed" Json.to_int j in
    let* records = field "records" Json.to_list j in
    let* records = all_ok record_of_json records in
    Ok { run; seed; records }

(* ---- scsbench suite pairs ---- *)

let suite_pair_schema = "scs.bench.suite-pair/1"

type side = { revision : string; trees : (string * string) list; suite : Json.t }
type paired = { p_workload : string; p_metric : string; p_parent : float; p_change : float }
type suite_pair = { label : string; parent : side; change : side; pairs : paired list }

let suite_pair_to_json p =
  let side s =
    Json.Obj
      [
        ("git_revision", Json.String s.revision);
        ("trees", Json.Obj (List.map (fun (path, h) -> (path, Json.String h)) s.trees));
        ("suite", s.suite);
      ]
  in
  let paired q =
    Json.Obj
      [
        ("workload", Json.String q.p_workload);
        ("metric", Json.String q.p_metric);
        ("parent", Json.Float q.p_parent);
        ("change", Json.Float q.p_change);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String suite_pair_schema);
      ("run", Json.String p.label);
      ("parent", side p.parent);
      ("change", side p.change);
      ("pairs", Json.List (List.map paired p.pairs));
    ]

let to_obj = function Json.Obj l -> Some l | _ -> None

(* One side of a pair: scsbench's results.json under a git revision and
   the git tree hashes of the measured source directories. Returns the
   side and its workload names; every end-to-end metric of every
   workload must carry a median. *)
let side_of_json name j =
  let in_side r = Result.map_error (fun e -> name ^ ": " ^ e) r in
  let* j = in_side (field name Option.some j) in
  let* revision = in_side (field "git_revision" Json.to_stringv j) in
  let* trees = in_side (field "trees" to_obj j) in
  let* trees =
    if trees = [] then Error (name ^ ": no source trees")
    else
      all_ok
        (fun (path, h) ->
          match Json.to_stringv h with
          | Some h -> Ok (path, h)
          | None -> Error (name ^ ": tree " ^ path ^ " is not a string"))
        trees
  in
  let* suite = in_side (field "suite" Option.some j) in
  let* _ = in_side (field "host_cores" Json.to_int suite) in
  let* _ = in_side (field "ocaml" Json.to_stringv suite) in
  let* workloads = in_side (field "workloads" to_obj suite) in
  if workloads = [] then Error (name ^ ": suite has no workloads")
  else
    let median w (m, mj) =
      in_side (Result.map_error (fun e -> w ^ "." ^ m ^ ": " ^ e) (field "median" Json.to_float mj))
    in
    let* _ =
      all_ok
        (fun (w, wj) ->
          let* e2e = in_side (field "end_to_end" to_obj wj) in
          all_ok (median w) e2e)
        workloads
    in
    Ok ({ revision; trees; suite }, List.sort compare (List.map fst workloads))

let suite_pair_of_json j =
  let* schema = field "schema" Json.to_stringv j in
  if schema <> suite_pair_schema then
    Error (Printf.sprintf "schema mismatch: expected %S, got %S" suite_pair_schema schema)
  else
    let* label = field "run" Json.to_stringv j in
    let* parent, pw = side_of_json "parent" j in
    let* change, cw = side_of_json "change" j in
    if pw <> cw then Error "parent and change suites cover different workloads"
    else
      let* pairs = field "pairs" Json.to_list j in
      let* pairs =
        all_ok
          (fun q ->
            let* p_workload = field "workload" Json.to_stringv q in
            let* p_metric = field "metric" Json.to_stringv q in
            let* p_parent = field "parent" Json.to_float q in
            let* p_change = field "change" Json.to_float q in
            Ok { p_workload; p_metric; p_parent; p_change })
          pairs
      in
      Ok { label; parent; change; pairs }

type file = Trajectory of t | Suite_pair of suite_pair

let validate s =
  let* j = Json.of_string s in
  match Option.bind (Json.member "schema" j) Json.to_stringv with
  | Some tag when tag = suite_pair_schema ->
      let* p = suite_pair_of_json j in
      Ok (Suite_pair p)
  | _ ->
      let* t = of_json j in
      Ok (Trajectory t)

let write_checked ~what ~check path json =
  let s = Json.to_string json ^ "\n" in
  (match check s with
  | Ok _ -> ()
  | Error e -> failwith (what ^ ": emitted invalid JSON: " ^ e));
  Out_channel.with_open_text path (fun oc -> output_string oc s)

let save path t = write_checked ~what:"Trajectory.save" ~check:validate path (to_json t)

let save_suite_pair path p =
  write_checked ~what:"Trajectory.save_suite_pair" ~check:validate path (suite_pair_to_json p)

let load path = validate (In_channel.with_open_bin path In_channel.input_all)
