type t = Sim_lin | Sim_sc of { lag : int } | Native

let default = Sim_lin

let name = function
  | Sim_lin -> "sim-lin"
  | Sim_sc { lag } -> Printf.sprintf "sim-sc:%d" lag
  | Native -> "native"

let valid_names = [ "sim-lin"; "sim-sc"; "sim-sc:<lag>"; "native" ]

let of_string s =
  let lag_of prefix =
    let pl = String.length prefix in
    if String.length s > pl && String.sub s 0 pl = prefix then
      int_of_string_opt (String.sub s pl (String.length s - pl))
    else None
  in
  match s with
  | "sim-lin" | "lin" -> Ok Sim_lin
  | "sim-sc" | "sc" -> Ok (Sim_sc { lag = Sc_prims.default_lag })
  | "native" -> Ok Native
  | _ -> (
      match (lag_of "sim-sc:", lag_of "sc:") with
      | Some lag, _ | None, Some lag ->
          if lag >= 0 then Ok (Sim_sc { lag })
          else Error (Printf.sprintf "backend %S: lag must be non-negative" s)
      | None, None ->
          Error
            (Printf.sprintf "unknown backend %S (valid backends: %s)" s
               (String.concat ", " valid_names)))

let lag = function Sim_sc { lag } -> Some lag | Sim_lin | Native -> None

let sim_prims t sim =
  match t with
  | Sim_lin -> Sim_prims.make sim
  | Sim_sc { lag } -> Sc_prims.make ~lag sim
  | Native ->
      invalid_arg
        "Backend.sim_prims: the native backend has no simulator (use Native_prims directly)"
