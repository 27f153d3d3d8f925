(* Rewrite a finished journal in place with the last character of its
   first record replaced by [c] — an outcome character of a shard
   record, which keeps its length and gets a valid CRC. *)
let set_last_outcome path c =
  match Journal.replay path with
  | Some (header, first :: rest, Journal.Clean) ->
      let b = Bytes.of_string first in
      Bytes.set b (Bytes.length b - 1) c;
      let w = Journal.create path ~header in
      List.iter (Journal.append w) (Bytes.to_string b :: rest);
      Journal.close w
  | Some _ | None -> failwith ("Journal_edit: no finished journal at " ^ path)
