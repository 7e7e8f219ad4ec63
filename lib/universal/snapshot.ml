module Make (P : Scs_prims.Prims_intf.S) = struct
  type 'a cell = { value : 'a; seq : int; view : 'a array option }

  type 'a t = { regs : 'a cell P.reg array; n : int }

  let create ~name ~n ~init =
    {
      regs =
        Array.init n (fun i ->
            P.reg
              ~name:(name ^ ".snap[" ^ string_of_int i ^ "]")
              { value = init; seq = 0; view = None });
      n;
    }

  let collect t = Array.map P.read t.regs

  let rec scan_loop t moved =
    let a = collect t in
    let b = collect t in
    let clean = ref true in
    let borrowed = ref None in
    for i = 0 to t.n - 1 do
      if a.(i).seq <> b.(i).seq then begin
        clean := false;
        if moved.(i) then begin
          (* component [i] moved in two distinct double-collects, so its
             second write started after our scan did: its embedded view is
             a linearizable snapshot inside our interval *)
          match b.(i).view with
          | Some v when !borrowed = None -> borrowed := Some v
          | _ -> ()
        end
        else moved.(i) <- true
      end
    done;
    if !clean then Array.map (fun c -> c.value) b
    else begin
      match !borrowed with Some v -> v | None -> scan_loop t moved
    end

  let scan t ~pid:_ = scan_loop t (Array.make t.n false)

  let update t ~pid v =
    let view = scan t ~pid in
    let cur = P.read t.regs.(pid) in
    P.write t.regs.(pid) { value = v; seq = cur.seq + 1; view = Some view }
end
