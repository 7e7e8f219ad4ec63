open Scs_workload

let section id title =
  Printf.printf "\n==== %s: %s ====\n\n" id title

let note s = Printf.printf "%s\n" s

let solo_ns = [ 2; 4; 8; 16; 32; Scs_sim.Sim.max_processes ]

let mean field ops =
  match ops with
  | [] -> 0.0
  | _ ->
      float_of_int (List.fold_left (fun acc o -> acc + field o) 0 ops)
      /. float_of_int (List.length ops)

let mean_steps ops = mean (fun (o : Tas_run.op_record) -> o.Tas_run.steps) ops
let mean_rmws ops = mean (fun (o : Tas_run.op_record) -> o.Tas_run.rmws) ops
let mean_raws ops = mean (fun (o : Tas_run.op_record) -> o.Tas_run.raws) ops

let fast_fraction ops =
  match ops with
  | [] -> 0.0
  | _ ->
      let fast =
        List.length
          (List.filter
             (fun (o : Tas_run.op_record) -> o.Tas_run.stage = Some Scs_tas.One_shot.Fast)
             ops)
      in
      float_of_int fast /. float_of_int (List.length ops)

let f2 x = Printf.sprintf "%.2f" x
let f1 x = Printf.sprintf "%.1f" x
