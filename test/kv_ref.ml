open Scs_spec
open Scs_shard.Kv

type state = { vals : (int * int) list; frozen : int list }

let rec put_sorted k v = function
  | [] -> [ (k, v) ]
  | ((k', _) as p) :: tl ->
      if k' < k then p :: put_sorted k v tl else if k' = k then (k, v) :: tl else (k, v) :: p :: tl

let get_default k vals = match List.assoc_opt k vals with Some v -> v | None -> 0

let rec insert_sorted b = function
  | [] -> [ b ]
  | b' :: tl as l -> if b' < b then b' :: insert_sorted b tl else if b' = b then l else b :: l

let seal ~buckets b vals = List.filter (fun (k, _) -> bucket_of_key ~buckets k = b) vals

let spec ~buckets =
  let apply st = function
    | Get k ->
        if List.mem (bucket_of_key ~buckets k) st.frozen then (st, Refused)
        else (st, Value (get_default k st.vals))
    | Put (k, v) ->
        if List.mem (bucket_of_key ~buckets k) st.frozen then (st, Refused)
        else ({ st with vals = put_sorted k v st.vals }, Ack)
    | Freeze b ->
        ({ st with frozen = insert_sorted b st.frozen }, Sealed (seal ~buckets b st.vals))
    | Install (b, pairs) ->
        let keep = List.filter (fun (k, _) -> bucket_of_key ~buckets k <> b) st.vals in
        let vals = List.fold_left (fun acc (k, v) -> put_sorted k v acc) keep pairs in
        ({ vals; frozen = List.filter (fun b' -> b' <> b) st.frozen }, Ack)
  in
  Spec.make
    ~name:(Printf.sprintf "shard-kv-ref/b%d" buckets)
    ~init:{ vals = []; frozen = [] } ~apply ~show_req ~show_resp ()
