type t = {
  model : Model.t;
  leg_step : int array;
  first_write : (string, int) Hashtbl.t;
  final_wb : int array;
}

let of_model (m : Model.t) =
  let legs = Array.of_list (fst (Model.all_legs m)) in
  let first_write = Hashtbl.create 32 in
  List.iter (fun b -> Hashtbl.replace first_write b (m.cs_max + 1)) m.buses;
  Array.iter
    (fun (l : Transfer.leg) ->
      let sink = Transfer.endpoint_name l.dst in
      match Hashtbl.find_opt first_write sink with
      | Some s when s <= l.step -> ()
      | _ -> Hashtbl.replace first_write sink l.step)
    legs;
  let final_wb = ref [] in
  Array.iteri
    (fun i (l : Transfer.leg) ->
      if l.step = m.cs_max && Phase.equal l.phase Phase.Wb then
        final_wb := i :: !final_wb)
    legs;
  { model = m;
    leg_step = Array.map (fun (l : Transfer.leg) -> l.step) legs;
    first_write;
    final_wb = Array.of_list (List.rev !final_wb) }

let step t index =
  if index >= 0 && index < Array.length t.leg_step then
    Some t.leg_step.(index)
  else None
